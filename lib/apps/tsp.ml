module Parmacs = Shm_parmacs.Parmacs
module Memory = Shm_memsys.Memory
module Prng = Shm_sim.Prng

type params = {
  ncities : int;
  seed : int;
  expand_depth : int;
  queue_capacity : int;
  node_cycles : int;  (* compute cost of extending a tour by one city *)
}

let default_node_cycles = 100

let default_params =
  { ncities = 12; seed = 9; expand_depth = 4; queue_capacity = 4096;
    node_cycles = default_node_cycles }

let params_n ncities =
  {
    ncities;
    (* A seed whose greedy tour is ~27% above optimal: bound updates keep
       happening during the search, so bound-propagation latency matters
       (the Section 2.4.3 effect). *)
    seed = 15;
    expand_depth = (if ncities <= 11 then 2 else 3);
    queue_capacity = 8192;
    node_cycles = default_node_cycles;
  }

let queue_lock = 0
let bound_lock = 1

let page_words = 512
let poll_backoff_cycles = 50000

type layout = {
  dist : int;
  bound : int;
  qtop : int;  (** stack pointer; [qtop + 1] is the in-progress counter *)
  slots : int;
  checksum : int;
  words : int;
  slot_words : int;
}

let layout_of p =
  let l = Layout.create () in
  let dist = Layout.alloc l (p.ncities * p.ncities) in
  let bound = Layout.alloc_aligned l 1 ~align:page_words in
  let qtop = Layout.alloc_aligned l 2 ~align:page_words in
  let slot_words = 1 + p.ncities in
  let slots = Layout.alloc l (p.queue_capacity * slot_words) in
  let checksum = Layout.alloc l 1 in
  { dist; bound; qtop; slots; checksum; words = Layout.size l; slot_words }

(* Euclidean instances (the paper used real city data): random points on
   a 1000x1000 grid.  Euclidean structure is what makes branch-and-bound
   prune well; uniformly random distance matrices barely prune at all. *)
let distances p =
  let rng = Prng.create ~seed:p.seed in
  let n = p.ncities in
  let xs = Array.init n (fun _ -> Prng.float rng 1000.0) in
  let ys = Array.init n (fun _ -> Prng.float rng 1000.0) in
  let d = Array.make_matrix n n 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let dx = xs.(i) -. xs.(j) and dy = ys.(i) -. ys.(j) in
      let v = 1 + int_of_float (sqrt ((dx *. dx) +. (dy *. dy))) in
      d.(i).(j) <- v;
      d.(j).(i) <- v
    done
  done;
  d

let greedy_tour_length d =
  let n = Array.length d in
  let visited = Array.make n false in
  visited.(0) <- true;
  let total = ref 0 and current = ref 0 in
  for _ = 1 to n - 1 do
    let best = ref (-1) and best_d = ref max_int in
    for c = 0 to n - 1 do
      if (not visited.(c)) && d.(!current).(c) < !best_d then begin
        best := c;
        best_d := d.(!current).(c)
      end
    done;
    visited.(!best) <- true;
    total := !total + !best_d;
    current := !best
  done;
  !total + d.(!current).(0)

let init p lay mem =
  let d = distances p in
  let n = p.ncities in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Memory.set_int mem (lay.dist + (i * n) + j) d.(i).(j)
    done
  done;
  Memory.set_int mem lay.bound (greedy_tour_length d);
  (* Seed the queue with the root tour [0]. *)
  Memory.set_int mem lay.qtop 1;
  Memory.set_int mem (lay.qtop + 1) 0;
  Memory.set_int mem lay.slots 1;
  Memory.set_int mem (lay.slots + 1) 0

let work p lay (ctx : Parmacs.ctx) =
  let n = p.ncities in
  let dist i j = Parmacs.read_i ctx (lay.dist + (i * n) + j) in
  let read_bound () = Parmacs.read_i ctx lay.bound in
  let slot_addr s = lay.slots + (s * lay.slot_words) in
  (* Private copy of a popped tour. *)
  let tour = Array.make n 0 in
  let slot_buf = Array.make (n + 1) 0 in
  let push_child ~len =
    (* Caller holds the queue lock; [tour.(0..len-1)] is the child.  The
       slot header and body are contiguous: store them as one range. *)
    let top = Parmacs.read_i ctx lay.qtop in
    if top >= p.queue_capacity then failwith "tsp: queue overflow";
    slot_buf.(0) <- len;
    Array.blit tour 0 slot_buf 1 len;
    ctx.range.write_is (slot_addr top) slot_buf 0 (len + 1);
    Parmacs.write_i ctx lay.qtop (top + 1)
  in
  let rec dfs ~len ~path_len ~visited =
    ctx.compute p.node_cycles;
    if len = n then begin
      let total = path_len + dist tour.(n - 1) 0 in
      if total < read_bound () then begin
        ctx.lock bound_lock;
        (* Re-check under the lock: the bound is now up to date. *)
        if total < Parmacs.read_i ctx lay.bound then
          Parmacs.write_i ctx lay.bound total;
        ctx.unlock bound_lock
      end
    end
    else
      for c = 1 to n - 1 do
        if visited land (1 lsl c) = 0 then begin
          let nl = path_len + dist tour.(len - 1) c in
          if nl < read_bound () then begin
            tour.(len) <- c;
            dfs ~len:(len + 1) ~path_len:nl ~visited:(visited lor (1 lsl c))
          end
        end
      done
  in
  let process ~len ~path_len ~visited =
    if len < p.expand_depth then begin
      (* Expand: push every promising child back on the queue. *)
      ctx.lock queue_lock;
      for c = 1 to n - 1 do
        if visited land (1 lsl c) = 0 then begin
          let nl = path_len + dist tour.(len - 1) c in
          if nl < read_bound () then begin
            tour.(len) <- c;
            push_child ~len:(len + 1)
          end
        end
      done;
      ctx.unlock queue_lock
    end
    else dfs ~len ~path_len ~visited
  in
  let running = ref true in
  while !running do
    ctx.lock queue_lock;
    let top = Parmacs.read_i ctx lay.qtop in
    if top > 0 then begin
      let a = slot_addr (top - 1) in
      let len = Parmacs.read_i ctx a in
      ctx.range.read_is (a + 1) tour 0 len;
      Parmacs.write_i ctx lay.qtop (top - 1);
      Parmacs.write_i ctx (lay.qtop + 1) (Parmacs.read_i ctx (lay.qtop + 1) + 1);
      ctx.unlock queue_lock;
      let path_len = ref 0 and visited = ref 0 in
      for k = 0 to len - 1 do
        visited := !visited lor (1 lsl tour.(k));
        if k > 0 then path_len := !path_len + dist tour.(k - 1) tour.(k)
      done;
      process ~len ~path_len:!path_len ~visited:!visited;
      ctx.lock queue_lock;
      Parmacs.write_i ctx (lay.qtop + 1) (Parmacs.read_i ctx (lay.qtop + 1) - 1);
      ctx.unlock queue_lock
    end
    else begin
      let busy = Parmacs.read_i ctx (lay.qtop + 1) in
      ctx.unlock queue_lock;
      if busy = 0 then running := false else ctx.compute poll_backoff_cycles
    end
  done;
  ctx.barrier 0;
  if ctx.id = 0 then
    Parmacs.write_f ctx lay.checksum (float_of_int (read_bound ()));
  ctx.barrier 0

let make p =
  let lay = layout_of p in
  {
    Parmacs.name = Printf.sprintf "tsp-%d" p.ncities;
    shared_words = lay.words;
    eager_lock_hints = [ bound_lock ];
    init = init p lay;
    work = work p lay;
    checksum_addr = lay.checksum;
    stats = Parmacs.no_stats;
    max_procs = max_int;
  }

let greedy_length p = float_of_int (greedy_tour_length (distances p))

let optimal_length p =
  let d = distances p in
  let n = p.ncities in
  let best = ref (greedy_tour_length d) in
  let tour = Array.make n 0 in
  let rec dfs len path_len visited =
    if len = n then begin
      let total = path_len + d.(tour.(n - 1)).(0) in
      if total < !best then best := total
    end
    else
      for c = 1 to n - 1 do
        if visited land (1 lsl c) = 0 then begin
          let nl = path_len + d.(tour.(len - 1)).(c) in
          if nl < !best then begin
            tour.(len) <- c;
            dfs (len + 1) nl (visited lor (1 lsl c))
          end
        end
      done
  in
  dfs 1 0 1;
  float_of_int !best
