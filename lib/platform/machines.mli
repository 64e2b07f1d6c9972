(** Named platform instances shared by the CLI, examples and benches.

    A named platform is a row of data: a topology expression on a host
    (["lrc*8@dec"], ["lrc(mesi*8 x 32)@sim"], ["1@dec"] for the
    uniprocessor), the display name its reports carry, and whether it
    honours the app's eager-release lock hints.  Which fault and crash
    policies a platform accepts follows from its tree ({!Topology.build}). *)

(** Canonical names: ["dec"], ["treadmarks"], ["treadmarks-kernel"],
    ["treadmarks-eager"], ["treadmarks-erc"], ["ivy"], ["sgi"],
    ["sgi-fast"], ["as"], ["ah"], ["hs"]. *)
val names : string list

(** Registered coherence-engine names, mountable with [get ?protocol]
    (= {!Shm_engines.names}). *)
val protocols : string list

(** [topology spec] builds a machine from a topology expression such as
    ["lrc(mesi*8 x 32)@sim"] (grammar: DESIGN.md §15, {!Topology.of_string}).
    [get] accepts the same spec under a ["topo:"] prefix. *)
val topology :
  ?faults:Shm_net.Fabric.faults ->
  ?crash:Shm_sim.Lifecycle.policy ->
  ?max_cycles:int ->
  ?instrument:Instrument.t ->
  string ->
  Platform.t

(** [get ?faults ?max_cycles name] builds the platform.  [faults] arms
    network fault injection; [crash] arms whole-node crash/restart
    injection with failure-atomic checkpoints and online recovery
    (DESIGN.md §13); [max_cycles] bounds each run with
    {!Shm_sim.Engine.Watchdog} (fault- and crash-mode runs get a generous
    default backstop).  Active fault and crash policies are accepted only
    by flat software-DSM platforms (a software-DSM root over bare
    processors); the others model reliable machines and refuse them.
    [protocol] replaces the root engine of the machine's tree (see
    {!protocols}) with one of the same kind — a hardware engine on a
    message-passing cluster and vice versa is refused, and ["dec"] — a
    uniprocessor — refuses all of them; the report then carries the
    name [display ^ "+" ^ protocol].  [instrument] enables the per-fiber time
    breakdown and optional Chrome-trace capture on any platform (see
    {!Instrument}).  A name of the form ["topo:SPEC"] builds the machine
    from the topology expression [SPEC] via {!topology}; a spec names its
    engines per level, so combining it with [protocol] is refused.
    @raise Invalid_argument for an unknown name, an active fault or crash
    policy on a hardware platform, an invalid machine x protocol
    combination, or a malformed topology spec. *)
val get :
  ?faults:Shm_net.Fabric.faults ->
  ?crash:Shm_sim.Lifecycle.policy ->
  ?max_cycles:int ->
  ?instrument:Instrument.t ->
  ?protocol:string ->
  string ->
  Platform.t
