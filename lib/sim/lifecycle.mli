(** Whole-node crash/restart injection (DESIGN.md §13).

    A lifecycle instance tracks per-node liveness for one simulation:
    crashes come from an explicit [(node, cycle)] schedule and/or a
    seeded per-window random draw.  Each crash marks the node down for
    [outage_cycles], fires the [on_crash] hooks, schedules a detection
    event after [detect_cycles] (where survivors re-home manager state)
    and a restart event (where the node's rejoin hooks run and parked
    fibers wake).  The module holds no protocol state — DSM engines
    register hooks at mount time.  Crash-free runs never construct a
    [t], preserving byte identity with the fault-free baseline. *)

type policy = {
  crashes : (int * int) list;  (** scheduled [(node, cycle)] crashes *)
  crash_rate : float;
      (** per-node crash probability per 1M-cycle window (seeded draw) *)
  crash_seed : int;
  outage_cycles : int;  (** cycles from crash to restart *)
  detect_cycles : int;  (** cycles from crash to survivor detection *)
  ckpt_interval : int;  (** periodic checkpoint period; 0 = off *)
  max_crashes : int;  (** cap on randomly drawn crashes *)
}

(** No crashes; outage 1M, detection 200k, no checkpoints. *)
val none : policy

(** [active p] is true when [p] can ever crash a node. *)
val active : policy -> bool

type t

(** [create eng counters policy ~nodes] makes the liveness state of
    nodes [0 .. nodes-1].
    @raise Invalid_argument if a scheduled crash names a node outside
    that range. *)
val create : Engine.t -> Shm_stats.Counters.t -> policy -> nodes:int -> t

val nodes : t -> int

val alive : t -> int -> bool

(** [down_until t node] is the node's restart cycle, or [0] if alive. *)
val down_until : t -> int -> int

(** [gate t fiber ~node] parks the fiber until the node restarts; a no-op
    when the node is alive.  Platforms call it before every shared-memory
    or synchronization operation of the node's processors. *)
val gate : t -> Engine.fiber -> node:int -> unit

(** Hook registration (mount time, before [start]).  [on_crash] fires at
    the crash cycle, [on_detect] at crash + [detect_cycles] if the node
    is still down (manager re-homing), [on_restart] at the restart cycle
    before parked fibers wake (rejoin/replay), [on_ckpt] every
    [ckpt_interval] cycles. *)

val on_crash : t -> (node:int -> at:int -> unit) -> unit

val on_detect : t -> (node:int -> at:int -> unit) -> unit

val on_restart : t -> (node:int -> at:int -> unit) -> unit

val on_ckpt : t -> (at:int -> unit) -> unit

(** [crash t node ~at] crashes a node immediately (test hook); no-op if
    the node is already down or the simulation has drained. *)
val crash : t -> int -> at:int -> unit

(** [start t] schedules the policy's crash and checkpoint events. *)
val start : t -> unit

(** [note t] renders liveness for deadlock/watchdog diagnostics, e.g.
    ["node 2 crashed (down until cycle 5200000)"]. *)
val note : t -> string
