(** Declarative topologies of coherence domains (DESIGN.md §15).

    A topology is a tree: the root domain names the outermost coherence
    mechanism, interior domains are hardware coherence levels inside a
    node (snoop bus, directory group), and leaves are processors.
    [Cpus n] contributes [n] single-processor participants to its
    parent; [Dom] contributes one participant running its own engine
    over its children.  A software-DSM engine may appear only at the
    root (software levels own per-node memories); hardware engines may
    appear at the root (one cabinet: the SGI/AH shapes) or nested under
    a software-DSM root (the HS shape, to any depth).  A bare [Cpus 1]
    root is the uniprocessor, which mounts no engine at all.

    The builder here is the single place in [lib/platform] that
    resolves engine names from the registry; every tree it builds runs
    on {!Tree_runner}, and the named platforms ({!Machines}) are rows of
    topology expressions. *)

type tree = Cpus of int | Dom of { engine : string; children : tree list }

(** The physical parameters a topology is instantiated on: processor
    clock, the inter-node fabric of a software-DSM root (if the host
    has a network at all), the private-cache geometry of bare
    processors under a software-DSM root and of the uniprocessor, and
    the bus timing profile a hardware root mounts. *)
type host = {
  host_name : string;
  clock_mhz : float;
  fabric_of : (unit -> Shm_net.Fabric.config) option;
  cache_cfg : Shm_memsys.Private_cache.config option;
  bus_profile : Shm_proto.hw_profile;
}

(** The simulated 100 MHz machine of paper Section 3 (AS/AH/HS), with
    the messaging overhead swept in Figures 14-16. *)
val host_sim : ?overhead:Shm_net.Overhead.t -> unit -> host

(** ["sim"]; ["dec"] and ["dec-kernel"], the DECstation-5000/240 ATM
    cluster of paper Section 2 with user- or kernel-level DSM; ["sgi"],
    the SGI 4D/480 cabinet (snooping bus, no network); ["sgi-fast"], its
    Section-2.5 doubled-bus variant. *)
val host_names : string list

(** @raise Invalid_argument for an unknown host name. *)
val host_of_name : string -> host

(** Kind of a registered engine (raises like {!Shm_engines.get} for an
    unknown name) — lets {!Machines} check a [--protocol] override
    without touching the registry itself. *)
val engine_kind : string -> Shm_proto.kind

val engine_names : unit -> string list

(** Total processors the topology can seat. *)
val capacity : tree -> int

(** [of_string spec] parses ["lrc(mesi*8 x 4)@sim"]-style expressions:
    [ENGINE*N] (a domain over [N] processors), [ENGINE(ITEM, ...)] where
    each item is a processor count or a sub-expression with an optional
    [x K] repeat, or a bare count at the root (["1@dec"], the
    uniprocessor), and an optional [@HOST] suffix.
    @raise Invalid_argument on a malformed spec, with the grammar in
    the message. *)
val of_string : string -> tree * string option

(** Canonical rendering (runs of equal members collapse to [x K]). *)
val to_string : tree -> string

(** [to_string t ^ "@" ^ host name] — the default platform name. *)
val spec_string : tree -> host -> string

(** Check the whole tree before anything is mounted: engine names
    resolve, kinds sit at legal levels, every domain has members, the
    host supports the root.  @raise Invalid_argument with a descriptive
    message; [build] calls this first, so an invalid combination never
    constructs engine state. *)
val validate : host:host -> tree -> unit

(** [build ~host t] validates [t] and returns a platform whose run
    function seats [nprocs] processors in it — capacities filled
    greedily left to right, so a run below {!capacity} mounts only the
    domains it uses — and runs the app on {!Tree_runner}.  [faults] and
    [crash] arm injection and are accepted only on a flat software-DSM
    tree (a software-DSM root whose members are all bare processors);
    [eager] honours the app's eager-release lock hints under a
    software-DSM root.
    @raise Invalid_argument per {!validate} and for an active fault or
    crash policy on any other tree; the run function raises it, before
    allocating anything, when [nprocs] is outside [1 .. capacity t] or
    exceeds the app's [max_procs]. *)
val build :
  ?name:string ->
  ?faults:Shm_net.Fabric.faults ->
  ?crash:Shm_sim.Lifecycle.policy ->
  ?max_cycles:int ->
  ?instrument:Instrument.t ->
  ?eager:bool ->
  host:host ->
  tree ->
  Platform.t

(** Parse, validate and build in one step; the platform is named by the
    canonical spec (host defaults to [sim]). *)
val of_spec :
  ?faults:Shm_net.Fabric.faults ->
  ?crash:Shm_sim.Lifecycle.policy ->
  ?max_cycles:int ->
  ?instrument:Instrument.t ->
  string ->
  Platform.t
