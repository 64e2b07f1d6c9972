module Parmacs = Shm_parmacs.Parmacs
module Memory = Shm_memsys.Memory
module Prng = Shm_sim.Prng

type mode = Locked | Batched

type params = {
  molecules : int;
  steps : int;
  mode : mode;
  seed : int;
  pair_cycles : int;  (* compute cost of one molecule-molecule interaction *)
  slots : int;
}

(* A molecule-molecule interaction in real Water evaluates nine atom-pair
   distances and transcendental terms: hundreds of microseconds on a
   40 MHz R3000. *)
let default_pair_cycles = 16000

let default_params mode =
  { molecules = 192; steps = 2; mode; seed = 17;
    pair_cycles = default_pair_cycles; slots = 64 }

let params_paper mode = { (default_params mode) with molecules = 288; steps = 5 }

let molecule_lock m = m

let integrate_compute_cycles = 200

let page_words = 512
let dt = 1e-3

type layout = {
  pos : int;
  vel : int;
  force : int;
  partials : int;
  checksum : int;
  words : int;
}

let layout_of p =
  let l = Layout.create () in
  let n3 = p.molecules * 3 in
  let pos = Layout.alloc l n3 in
  let vel = Layout.alloc l n3 in
  let force = Layout.alloc l n3 in
  let partials = Layout.alloc_aligned l (p.slots * page_words) ~align:page_words in
  let checksum = Layout.alloc l 1 in
  { pos; vel; force; partials; checksum; words = Layout.size l }

let init p lay mem =
  let rng = Prng.create ~seed:p.seed in
  let side = int_of_float (ceil (float_of_int p.molecules ** (1. /. 3.))) in
  for m = 0 to p.molecules - 1 do
    let gx = m mod side
    and gy = m / side mod side
    and gz = m / (side * side) in
    let jitter () = 0.1 *. Prng.float rng 1.0 in
    Memory.set_float mem (lay.pos + (3 * m)) (float_of_int gx +. jitter ());
    Memory.set_float mem (lay.pos + (3 * m) + 1) (float_of_int gy +. jitter ());
    Memory.set_float mem (lay.pos + (3 * m) + 2) (float_of_int gz +. jitter ());
    for k = 0 to 2 do
      Memory.set_float mem (lay.vel + (3 * m) + k) 0.0;
      Memory.set_float mem (lay.force + (3 * m) + k) 0.0
    done
  done

let work p lay (ctx : Parmacs.ctx) =
  let n = p.molecules in
  let lo = n * ctx.id / ctx.nprocs and hi = n * (ctx.id + 1) / ctx.nprocs in
  let buf3 = Array.make 3 0.0 in
  (* The pair loop is the simulator's hottest app kernel: n^2/2 reads of
     a 3-float record per step.  Values move through [buf3] and unboxed
     float locals — no tuples — so the loop allocates nothing per pair. *)
  let read3 base m = ctx.range.read_fs (base + (3 * m)) buf3 0 3 in
  let write3 base m x y z =
    buf3.(0) <- x;
    buf3.(1) <- y;
    buf3.(2) <- z;
    ctx.range.write_fs (base + (3 * m)) buf3 0 3
  in
  let add_force_locked m fx fy fz =
    ctx.lock (molecule_lock m);
    let a = lay.force + (3 * m) in
    Parmacs.write_f ctx a (Parmacs.read_f ctx a +. fx);
    Parmacs.write_f ctx (a + 1) (Parmacs.read_f ctx (a + 1) +. fy);
    Parmacs.write_f ctx (a + 2) (Parmacs.read_f ctx (a + 2) +. fz);
    ctx.unlock (molecule_lock m)
  in
  let acc = Array.make (3 * n) 0.0 in
  let acc_touched = Array.make n false in
  let zeros = Array.make (3 * (max 0 (hi - lo))) 0.0 in
  let locked = p.mode = Locked in
  for _step = 1 to p.steps do
    (* Phase 1: owners clear their molecules' force records — one
       contiguous store range over the owned segment. *)
    if hi > lo then Parmacs.write_range_f ctx (lay.force + (3 * lo)) zeros;
    ctx.barrier 1;
    (* Phase 2: pairwise forces.  Processor [p] computes interactions of
       its molecules with all higher-numbered ones. *)
    Array.fill acc 0 (3 * n) 0.0;
    Array.fill acc_touched 0 n false;
    for i = lo to hi - 1 do
      read3 lay.pos i;
      let xi = buf3.(0) and yi = buf3.(1) and zi = buf3.(2) in
      for j = i + 1 to n - 1 do
        read3 lay.pos j;
        let dx = xi -. buf3.(0)
        and dy = yi -. buf3.(1)
        and dz = zi -. buf3.(2) in
        (* Lennard-Jones-like force; clamped to keep the toy integrator
           stable. *)
        let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) +. 0.01 in
        let inv_r2 = 1.0 /. r2 in
        let inv_r6 = inv_r2 *. inv_r2 *. inv_r2 in
        let scale = 24.0 *. inv_r6 *. ((2.0 *. inv_r6) -. 1.0) *. inv_r2 in
        let scale = Float.max (-10.0) (Float.min 10.0 scale) in
        let fx = scale *. dx and fy = scale *. dy and fz = scale *. dz in
        ctx.compute p.pair_cycles;
        if locked then begin
          (* Original Water: one lock acquire per update of molecule j;
             contributions to own molecule i batch until the j-loop ends. *)
          add_force_locked j (-.fx) (-.fy) (-.fz);
          let b = 3 * i in
          Array.unsafe_set acc b (Array.unsafe_get acc b +. fx);
          Array.unsafe_set acc (b + 1) (Array.unsafe_get acc (b + 1) +. fy);
          Array.unsafe_set acc (b + 2) (Array.unsafe_get acc (b + 2) +. fz)
        end
        else begin
          let b = 3 * i in
          Array.unsafe_set acc b (Array.unsafe_get acc b +. fx);
          Array.unsafe_set acc (b + 1) (Array.unsafe_get acc (b + 1) +. fy);
          Array.unsafe_set acc (b + 2) (Array.unsafe_get acc (b + 2) +. fz);
          let b = 3 * j in
          Array.unsafe_set acc b (Array.unsafe_get acc b -. fx);
          Array.unsafe_set acc (b + 1) (Array.unsafe_get acc (b + 1) -. fy);
          Array.unsafe_set acc (b + 2) (Array.unsafe_get acc (b + 2) -. fz);
          Array.unsafe_set acc_touched j true
        end
      done;
      acc_touched.(i) <- true
    done;
    (* Apply accumulated contributions: M-Water takes one lock per
       molecule it updated; original Water already flushed the js.  Start
       at the own segment and wrap so processors do not convoy on the
       same molecule locks in the same order. *)
    for k = 0 to n - 1 do
      let m = (lo + k) mod n in
      if acc_touched.(m) then
        add_force_locked m acc.(3 * m) acc.((3 * m) + 1) acc.((3 * m) + 2)
    done;
    ctx.barrier 1;
    (* Phase 3: owners integrate their molecules. *)
    for m = lo to hi - 1 do
      read3 lay.force m;
      let fx = buf3.(0) and fy = buf3.(1) and fz = buf3.(2) in
      read3 lay.vel m;
      let vx = buf3.(0) +. (fx *. dt)
      and vy = buf3.(1) +. (fy *. dt)
      and vz = buf3.(2) +. (fz *. dt) in
      write3 lay.vel m vx vy vz;
      read3 lay.pos m;
      let xi = buf3.(0) and yi = buf3.(1) and zi = buf3.(2) in
      write3 lay.pos m (xi +. (vx *. dt)) (yi +. (vy *. dt)) (zi +. (vz *. dt));
      ctx.compute integrate_compute_cycles
    done;
    ctx.barrier 1
  done;
  (* Checksum: per-processor digests over owned molecules. *)
  let s = ref 0.0 in
  for m = lo to hi - 1 do
    read3 lay.pos m;
    let x = buf3.(0) and y = buf3.(1) and z = buf3.(2) in
    read3 lay.vel m;
    s := !s +. x +. y +. z +. buf3.(0) +. buf3.(1) +. buf3.(2)
  done;
  Parmacs.write_f ctx (lay.partials + (ctx.id * page_words)) !s;
  ctx.barrier 1;
  if ctx.id = 0 then begin
    let total = ref 0.0 in
    for q = 0 to ctx.nprocs - 1 do
      total := !total +. Parmacs.read_f ctx (lay.partials + (q * page_words))
    done;
    Parmacs.write_f ctx lay.checksum !total
  end;
  ctx.barrier 1

let make p =
  let lay = layout_of p in
  let mode_name = match p.mode with Locked -> "water" | Batched -> "m-water" in
  {
    Parmacs.name = Printf.sprintf "%s-%d" mode_name p.molecules;
    shared_words = lay.words;
    eager_lock_hints = [];
    init = init p lay;
    work = work p lay;
    checksum_addr = lay.checksum;
    stats = Parmacs.no_stats;
    max_procs = p.slots;
  }
