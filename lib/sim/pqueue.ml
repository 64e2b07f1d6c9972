(* Binary min-heap over a pool of event nodes.

   Events are nodes in a pool of parallel arrays ([times]/[seqs]/[vals]).
   [heap] is a permutation of the pool's node indices: positions
   [0, size) are the binary heap, ordered by [(time, seq)], and positions
   [size, capacity) are the free list.  A push takes the free node at
   position [size] and sifts it up; a pop moves the root's node to the
   front of the free list and sifts the last heap entry down from the
   root.  Once the pool has grown to a run's working set, push and pop
   allocate nothing.

   [seq] is assigned at push from a counter, so it is unique and larger
   than every live entry's: equal times pop in insertion order, and the
   sift-up of a fresh node needs only the time comparison. *)

type 'a t = {
  dummy : 'a;
  mutable times : int array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable heap : int array;
  mutable size : int;
  mutable next_seq : int;
}

let initial_cap = 64

let create ~dummy =
  {
    dummy;
    times = Array.make initial_cap 0;
    seqs = Array.make initial_cap 0;
    vals = Array.make initial_cap dummy;
    heap = Array.init initial_cap Fun.id;
    size = 0;
    next_seq = 0;
  }

let length q = q.size

let is_empty q = q.size = 0

(* Double the pool; the new nodes join the free list in index order. *)
let grow q =
  let cap = Array.length q.heap in
  let extend a fill =
    let b = Array.make (2 * cap) fill in
    Array.blit a 0 b 0 cap;
    b
  in
  q.times <- extend q.times 0;
  q.seqs <- extend q.seqs 0;
  q.vals <- extend q.vals q.dummy;
  q.heap <- Array.init (2 * cap) (fun i -> if i < cap then q.heap.(i) else i)

let[@inline] less q a b =
  q.times.(a) < q.times.(b)
  || (q.times.(a) = q.times.(b) && q.seqs.(a) < q.seqs.(b))

let push q ~time v =
  if q.size = Array.length q.heap then grow q;
  let heap = q.heap in
  let n = heap.(q.size) in
  q.times.(n) <- time;
  q.seqs.(n) <- q.next_seq;
  q.vals.(n) <- v;
  q.next_seq <- q.next_seq + 1;
  let i = ref q.size in
  q.size <- q.size + 1;
  while !i > 0 && time < q.times.(heap.((!i - 1) / 2)) do
    let parent = (!i - 1) / 2 in
    heap.(!i) <- heap.(parent);
    i := parent
  done;
  heap.(!i) <- n

let min_time_exn q = if q.size = 0 then max_int else q.times.(q.heap.(0))

(* Move the root's node to the front of the free list, sift the last
   entry down from the root, and clear the popped value so the GC can
   reclaim a dead event's closure. *)
let pop_event q =
  if q.size = 0 then raise Not_found;
  let heap = q.heap in
  let root = heap.(0) in
  let size = q.size - 1 in
  q.size <- size;
  let last = heap.(size) in
  heap.(size) <- root;
  let i = ref 0 and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    if l >= size then sifting := false
    else begin
      let c =
        if l + 1 < size && less q heap.(l + 1) heap.(l) then l + 1 else l
      in
      if less q heap.(c) last then begin
        heap.(!i) <- heap.(c);
        i := c
      end
      else sifting := false
    end
  done;
  heap.(!i) <- last;
  let v = q.vals.(root) in
  q.vals.(root) <- q.dummy;
  v

let pop q =
  let time = min_time_exn q in
  (time, pop_event q)
