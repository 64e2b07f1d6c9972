(** Priority queue of simulation events keyed by [(time, seq)].

    The sequence number is assigned internally at insertion, so two entries
    with the same time pop in insertion order.  This is what makes the
    simulation deterministic.

    The queue is one binary min-heap of indices into a pool of event
    nodes.  The pool doubles when full and is never shrunk, so once it
    has grown to a run's working set the push/pop cycle allocates
    nothing. *)

type 'a t

(** [create ~dummy] makes an empty queue.  [dummy] fills vacant pool
    slots so released events don't retain their payloads; it is never
    returned. *)
val create : dummy:'a -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

(** [push q ~time v] inserts [v] with key [time]. *)
val push : 'a t -> time:int -> 'a -> unit

(** [pop q] removes and returns the minimum entry as [(time, v)].
    @raise Not_found if the queue is empty. *)
val pop : 'a t -> int * 'a

(** [pop_event q] removes the minimum entry and returns just its value,
    without boxing the [(time, value)] pair; the time is available
    beforehand from [min_time_exn].
    @raise Not_found if the queue is empty. *)
val pop_event : 'a t -> 'a

(** [min_time_exn q] is the minimum entry's time without removing it, or
    [max_int] when the queue is empty.  O(1): a read of the heap root. *)
val min_time_exn : 'a t -> int
