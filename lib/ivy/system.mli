(** An IVY-style sequentially-consistent page-based DSM (Li & Hudak's
    "Memory coherence in shared virtual memory systems", cited by the
    paper as the classic software shared memory).

    Contrast with TreadMarks ({!Shm_tmk.System}): one writer at a time per
    page, whole-page transfers instead of diffs, invalidations on every
    write fault instead of at synchronization points.  Two processors
    writing disjoint halves of the same page ping-pong the full 4 KB back
    and forth — the false-sharing failure mode that motivated
    multiple-writer lazy release consistency.

    Each page has a static manager tracking the owner and copyset;
    transactions on a page serialize through the manager (queued when
    busy), and write faults invalidate every copy (acked) before ownership
    transfers.  Locks are centralized-manager queued locks; barriers a
    centralized counter.  The usage discipline matches {!Shm_tmk.System}:
    guard immediately before each access. *)

type t

(** Raised when a protocol message violates the manager's page state
    machine (e.g. a transaction with an [Invalid] access kind, which no
    well-formed request produces); the kit's one protocol-error
    exception, re-exported. *)
exception
  Proto_error of {
    page : int;
    requester : int;
    manager : int;
    state : string;
  }

(** [create ?lifecycle ...]: with [?lifecycle] the system arms crash
    recovery (DESIGN.md §13): page-granular failure-atomic checkpoints
    on the lifecycle's tick ([ckpt.count]/[ckpt.bytes]), lock- and
    barrier-manager re-homing to a surviving node on crash detection
    ([recovery.rehomes]/[recovery.forwards]), and an online rejoin at
    restart that invalidates every non-owned page so it re-fetches
    through the manager ([recovery.count]/[recovery.cycles]/
    [recovery.invalidated]).  The page {e directory} is NOT re-homed:
    page requests to a down manager stall in retransmit queues until it
    restarts (documented deviation).  The caller must attach the same
    lifecycle to the fabric before [create].  Without [?lifecycle] every
    code path is byte-identical to the pre-crash-layer system.  Raises
    [Invalid_argument] when [page_words] is not a power of two. *)
val create :
  ?lifecycle:Shm_sim.Lifecycle.t ->
  Shm_sim.Engine.t ->
  Shm_stats.Counters.t ->
  Proto.t Shm_net.Reliable.packet Shm_net.Fabric.t ->
  page_words:int ->
  shared_words:int ->
  memories:Shm_memsys.Memory.t array ->
  t

val memory : t -> node:int -> Shm_memsys.Memory.t

(** [kit t] is the node kit the system runs on. *)
val kit : t -> Proto.t Shm_proto.Node_kit.t

val start : t -> unit

val read_guard : t -> Shm_sim.Engine.fiber -> node:int -> int -> unit

val write_guard : t -> Shm_sim.Engine.fiber -> node:int -> int -> unit

(** [read_range_guard t fiber ~node addr words ~f] guards each overlapped
    page once, in order, calling [f run_addr run_words] per in-page run
    immediately after that page's guard.  [f] must not yield. *)
val read_range_guard :
  t -> Shm_sim.Engine.fiber -> node:int -> int -> int ->
  f:(int -> int -> unit) -> unit

val write_range_guard :
  t -> Shm_sim.Engine.fiber -> node:int -> int -> int ->
  f:(int -> int -> unit) -> unit

val acquire : t -> Shm_sim.Engine.fiber -> node:int -> lock:int -> unit

val release : t -> Shm_sim.Engine.fiber -> node:int -> lock:int -> unit

val barrier_arrive : t -> Shm_sim.Engine.fiber -> node:int -> id:int -> unit

(** [check_invariants t]: exactly one owner per page, owner's copy valid,
    writers are owners, copysets cover every valid copy. *)
val check_invariants : t -> unit
