module Parmacs = Shm_parmacs.Parmacs
module Memory = Shm_memsys.Memory
module Prng = Shm_sim.Prng

type input = Clp | Bad

type params = {
  input : input;
  iters : int;
  seed : int;
  scale : float;
  slots : int;
}

let default_params input =
  { input; iters = 6; seed = 23; scale = 1.0; slots = 64 }

let page_words = 512
let theta_words = 64

type shape = { families : int; result_words : int }

let shape_of = function
  | Clp -> { families = 16; result_words = 32 }
  | Bad -> { families = 96; result_words = 128 }

let family_costs p =
  let rng = Prng.create ~seed:p.seed in
  let sh = shape_of p.input in
  Array.init sh.families (fun _ ->
      let base =
        match p.input with
        | Clp ->
            (* Large, near-uniform peeling costs. *)
            2_000_000.0 *. (0.9 +. (0.2 *. Prng.float rng 1.0))
        | Bad ->
            (* Heavy-tailed: many small families, a few dominant ones. *)
            let u = Float.max 1e-3 (Prng.float rng 1.0) in
            60_000.0 *. (u ** -0.55)
      in
      int_of_float (base *. p.scale))

type layout = {
  theta : int;
  results : int;
  partials : int;
  loglike : int;
  checksum : int;
  words : int;
}

let layout_of ~slots sh =
  let l = Layout.create () in
  let theta = Layout.alloc_aligned l theta_words ~align:page_words in
  let results = Layout.alloc_aligned l (sh.families * sh.result_words) ~align:page_words in
  let partials = Layout.alloc_aligned l (slots * page_words) ~align:page_words in
  let loglike = Layout.alloc l 1 in
  let checksum = Layout.alloc l 1 in
  { theta; results; partials; loglike; checksum; words = Layout.size l }

let init lay mem =
  for k = 0 to theta_words - 1 do
    Memory.set_float mem (lay.theta + k) (0.1 +. (0.01 *. float_of_int k))
  done;
  Memory.set_float mem lay.loglike 0.0

(* Deterministic stand-in for a family's peeling result. *)
let family_term ~family ~slot theta_k =
  sin ((theta_k *. float_of_int (family + 1)) +. float_of_int slot)

let work p sh lay costs (ctx : Parmacs.ctx) =
  let ll = ref 0.0 in
  (* The peeling loop interleaves theta reads with result writes, so it
     cannot batch into range ops without reordering accesses; instead the
     platform closures and transfer cell are hoisted and the result base
     precomputed, leaving one projection-free read and write per slot. *)
  let readf = ctx.readf and writef = ctx.writef and fcell = ctx.fcell in
  let rw = sh.result_words in
  for _iter = 1 to p.iters do
    ctx.barrier 0;
    (* Parallel phase: families round-robin across processors. *)
    let partial = ref 0.0 in
    for f = 0 to sh.families - 1 do
      if f mod ctx.nprocs = ctx.id then begin
        ctx.compute costs.(f);
        let contribution = ref 0.0 in
        let rbase = lay.results + (f * rw) in
        for r = 0 to rw - 1 do
          readf (lay.theta + (r mod theta_words));
          let v = family_term ~family:f ~slot:r !fcell in
          fcell := v;
          writef (rbase + r);
          contribution := !contribution +. v
        done;
        partial := !partial +. log (2.0 +. !contribution /. float_of_int rw)
      end
    done;
    Parmacs.write_f ctx (lay.partials + (ctx.id * page_words)) !partial;
    ctx.barrier 0;
    (* Master phase: gather gradients, update theta, accumulate loglike. *)
    if ctx.id = 0 then begin
      for q = 0 to ctx.nprocs - 1 do
        ll := !ll +. Parmacs.read_f ctx (lay.partials + (q * page_words))
      done;
      let grad = Array.make theta_words 0.0 in
      let row = Array.make sh.result_words 0.0 in
      for f = 0 to sh.families - 1 do
        (* Each family's result record is contiguous: gather it whole. *)
        Parmacs.read_range_f ctx (lay.results + (f * sh.result_words)) row;
        for r = 0 to sh.result_words - 1 do
          grad.(r mod theta_words) <- grad.(r mod theta_words) +. row.(r)
        done
      done;
      let theta = Array.make theta_words 0.0 in
      Parmacs.read_range_f ctx lay.theta theta;
      for k = 0 to theta_words - 1 do
        theta.(k) <- theta.(k) +. (1e-4 *. grad.(k) /. float_of_int sh.families)
      done;
      Parmacs.write_range_f ctx lay.theta theta;
      Parmacs.write_f ctx lay.loglike !ll
    end
  done;
  ctx.barrier 0;
  if ctx.id = 0 then
    Parmacs.write_f ctx lay.checksum (Parmacs.read_f ctx lay.loglike);
  ctx.barrier 0

let make p =
  let sh = shape_of p.input in
  let lay = layout_of ~slots:p.slots sh in
  let costs = family_costs p in
  let input_name = match p.input with Clp -> "clp" | Bad -> "bad" in
  {
    Parmacs.name = Printf.sprintf "ilink-%s" input_name;
    shared_words = lay.words;
    eager_lock_hints = [];
    init = init lay;
    work = work p sh lay costs;
    checksum_addr = lay.checksum;
    stats = Parmacs.no_stats;
    max_procs = p.slots;
  }
