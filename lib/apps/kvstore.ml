module Parmacs = Shm_parmacs.Parmacs
module Memory = Shm_memsys.Memory
module Hist = Shm_stats.Hist

(* Sharded key-value store on shared pages (DESIGN.md §14).

   The table is split into [shards] open-addressing regions, each
   page-aligned so a shard and its metadata live on their own pages.
   Word 0 of a shard is its current owner (node id + 1, 0 = unowned);
   the slots follow, two words per slot: [key+1, value] with key-word 0
   meaning empty.  A request locks the shard (lock id = shard index),
   writes the owner word if it is re-homing the shard to a new node —
   migratory bucket ownership, carried by page migration through the
   reliable layer on the SDSM platforms and by plain cache-line
   migration on the hardware machines — then probes linearly.

   Each node replays its deterministic open-loop trace (Loadgen),
   charging idle gaps up to each request's issue cycle and measuring
   latency from the scheduled issue time into an allocation-free
   histogram.  The linearization cycle of every request is recorded
   while the shard lock is held; shard critical sections are disjoint
   in simulated time, so sorting all requests by (cycle, node, index)
   reconstructs a total order per shard — the order the built-in
   differential model check replays against a plain Hashtbl.

   Put keys are partitioned per node (Loadgen), so the final store
   contents — and the content-based digest written as the run checksum
   — are identical on every platform and under any fault or crash
   schedule, even though individual get results are timing-dependent. *)

type params = {
  shards : int;
  service_cycles : int;  (* per-request parse/respond compute *)
  load : Loadgen.params;
}

let default_params =
  {
    shards = 16;
    service_cycles = 400;
    load =
      {
        Loadgen.seed = 42;
        keys = 1024;
        zipf = 0.9;
        get_ratio = 0.9;
        requests = 2000;
        mean_gap = 2000;
      };
  }

let max_nodes = 256
let page_words = 512

(* SplitMix64's multiplier; one multiply mixes the key well enough to
   decorrelate shard choice (low bits) from probe start (high bits). *)
let mix key = key * 0x2545F4914F6CDD1D land max_int

let shard_of p key = mix key mod p.shards

type layout = {
  shard_base : int array;  (* owner word; slots follow *)
  shard_cap : int array;  (* slots per shard *)
  checksum : int;
  words : int;
}

(* Shard capacities are computed exactly: key->shard is a pure function,
   so counting the keys that can map to each shard bounds its occupancy.
   Doubling that keeps linear probes short; +2 guarantees a probe always
   terminates at an empty slot. *)
let layout_of p =
  let keys_per_shard = Array.make p.shards 0 in
  for key = 0 to p.load.Loadgen.keys - 1 do
    let s = shard_of p key in
    keys_per_shard.(s) <- keys_per_shard.(s) + 1
  done;
  let l = Layout.create () in
  let shard_cap = Array.map (fun o -> (2 * o) + 2) keys_per_shard in
  let shard_base =
    Array.map
      (fun cap -> Layout.alloc_aligned l (1 + (2 * cap)) ~align:page_words)
      shard_cap
  in
  let checksum = Layout.alloc_aligned l 1 ~align:page_words in
  { shard_base; shard_cap; checksum; words = Layout.size l }

(* One completed request, as observed by the issuing node.  [lin] is the
   linearization cycle (clock read under the shard lock); [value] is the
   value returned (get, 0 = miss) or stored (put). *)
type entry = {
  op : Loadgen.op;
  key : int;
  value : int;
  lin : int;
  node : int;
  idx : int;
}

type t = {
  app : Parmacs.app;
  params : params;
  results : unit -> entry list;
  latency : unit -> Hist.t;
  final : unit -> (int * int) list;
}

(* Put values are unique per (node, request index), so the model replay
   can distinguish every write. *)
let value_of ~node ~idx = ((node + 1) * 0x1000000) + idx

let compare_entry a b =
  if a.lin <> b.lin then compare a.lin b.lin
  else if a.node <> b.node then compare a.node b.node
  else compare a.idx b.idx

let validate p =
  if p.shards < 1 || p.shards > 64 then
    invalid_arg "Kvstore: shards must be in [1, 64]";
  if p.service_cycles < 0 then
    invalid_arg "Kvstore: service-cycles must be non-negative";
  (* Reject bad load parameters at build time, not mid-run. *)
  Loadgen.validate p.load

let make p =
  validate p;
  let lay = layout_of p in
  (* Per-run observation state, private to this app instance: reset by
     [init] (which every platform calls once per run, before the timed
     section), read back by [stats]/[results] after the run.  Fibers of
     one run share a domain, so plain mutation is safe; distinct
     concurrent runs must use distinct instances (DESIGN.md §8 — the
     registry builds a fresh instance per call). *)
  let logs : entry array option array = Array.make max_nodes None in
  let hists : Hist.t option array = Array.make max_nodes None in
  let moves = Array.make max_nodes 0 in
  let hits = Array.make max_nodes 0 in
  let misses = Array.make max_nodes 0 in
  let inserts = Array.make max_nodes 0 in
  let final_tbl : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let ran_nprocs = ref 0 in
  let model_ok = ref 0 in
  let reset () =
    Array.fill logs 0 max_nodes None;
    Array.fill hists 0 max_nodes None;
    Array.fill moves 0 max_nodes 0;
    Array.fill hits 0 max_nodes 0;
    Array.fill misses 0 max_nodes 0;
    Array.fill inserts 0 max_nodes 0;
    Hashtbl.reset final_tbl;
    ran_nprocs := 0;
    model_ok := 0
  in
  let gather () =
    let acc = ref [] in
    for node = max_nodes - 1 downto 0 do
      match logs.(node) with
      | None -> ()
      | Some log -> acc := Array.to_list log @ !acc
    done;
    List.sort compare_entry !acc
  in
  (* Differential model check: replay the recorded linearization order
     through a plain Hashtbl; every get must have returned the model's
     value and the final store contents must equal the model's.  Runs on
     node 0 after the final sweep, as untimed host computation. *)
  let check_model () =
    let model = Hashtbl.create 256 in
    List.iter
      (fun e ->
        match e.op with
        | Loadgen.Put -> Hashtbl.replace model e.key e.value
        | Loadgen.Get ->
            let expect =
              Option.value (Hashtbl.find_opt model e.key) ~default:0
            in
            if expect <> e.value then
              failwith
                (Printf.sprintf
                   "kv: node %d request %d: get(%d) returned %d, model says \
                    %d (linearized at cycle %d)"
                   e.node e.idx e.key e.value expect e.lin))
      (gather ());
    if Hashtbl.length model <> Hashtbl.length final_tbl then
      failwith
        (Printf.sprintf "kv: final store has %d keys, model has %d"
           (Hashtbl.length final_tbl) (Hashtbl.length model));
    Hashtbl.iter
      (fun key v ->
        match Hashtbl.find_opt final_tbl key with
        | Some v' when v' = v -> ()
        | Some v' ->
            failwith
              (Printf.sprintf "kv: final store key %d = %d, model says %d" key
                 v' v)
        | None ->
            failwith
              (Printf.sprintf "kv: key %d missing from the final store" key))
      model;
    model_ok := 1
  in
  let work (ctx : Parmacs.ctx) =
    if ctx.Parmacs.id >= max_nodes then
      invalid_arg "Kvstore: more than 256 nodes";
    let reqs = Loadgen.trace p.load ~node:ctx.Parmacs.id ~nprocs:ctx.Parmacs.nprocs in
    let n = Array.length reqs in
    let log =
      Array.make n
        { op = Loadgen.Get; key = 0; value = 0; lin = 0; node = 0; idx = 0 }
    in
    let hist = Hist.create () in
    logs.(ctx.Parmacs.id) <- Some log;
    hists.(ctx.Parmacs.id) <- Some hist;
    let me = ctx.Parmacs.id in
    for i = 0 to n - 1 do
      let r = reqs.(i) in
      let now = ctx.Parmacs.clock () in
      (* Open-loop: idle until the scheduled issue cycle; if the server
         is behind schedule, the request is late and its latency keeps
         the queueing delay. *)
      if now < r.Loadgen.issue then ctx.Parmacs.compute (r.Loadgen.issue - now);
      let s = shard_of p r.Loadgen.key in
      ctx.Parmacs.lock s;
      let base = lay.shard_base.(s) in
      let owner = Parmacs.read_i ctx base in
      if owner <> me + 1 then begin
        Parmacs.write_i ctx base (me + 1);
        moves.(me) <- moves.(me) + 1
      end;
      let cap = lay.shard_cap.(s) in
      let slot = ref ((mix r.Loadgen.key lsr 16) mod cap) in
      let found = ref (-1) and empty = ref (-1) and probes = ref 0 in
      while !found < 0 && !empty < 0 do
        if !probes > cap then failwith "kv: shard overfull (probe loop)";
        incr probes;
        let a = base + 1 + (2 * !slot) in
        let k = Parmacs.read_i ctx a in
        if k = r.Loadgen.key + 1 then found := a
        else if k = 0 then empty := a
        else slot := (!slot + 1) mod cap
      done;
      let value =
        match r.Loadgen.op with
        | Loadgen.Get ->
            if !found >= 0 then begin
              hits.(me) <- hits.(me) + 1;
              Parmacs.read_i ctx (!found + 1)
            end
            else begin
              misses.(me) <- misses.(me) + 1;
              0
            end
        | Loadgen.Put ->
            let v = value_of ~node:me ~idx:i in
            if !found >= 0 then Parmacs.write_i ctx (!found + 1) v
            else begin
              inserts.(me) <- inserts.(me) + 1;
              Parmacs.write_i ctx !empty (r.Loadgen.key + 1);
              Parmacs.write_i ctx (!empty + 1) v
            end;
            v
      in
      let lin = ctx.Parmacs.clock () in
      ctx.Parmacs.unlock s;
      ctx.Parmacs.compute p.service_cycles;
      let done_ = ctx.Parmacs.clock () in
      Hist.record hist (done_ - r.Loadgen.issue);
      log.(i) <- { op = r.Loadgen.op; key = r.Loadgen.key; value; lin; node = me; idx = i }
    done;
    ctx.Parmacs.barrier 0;
    if me = 0 then begin
      ran_nprocs := ctx.Parmacs.nprocs;
      (* Final sweep: read the whole table through the platform (a
         read-mostly pass pulling every shard to node 0), capture the
         contents for the differential harness and fold a content-based
         digest — commutative over slots, so independent of insertion
         order and probe placement. *)
      let digest = ref 0 in
      for s = 0 to p.shards - 1 do
        let base = lay.shard_base.(s) and cap = lay.shard_cap.(s) in
        for j = 0 to cap - 1 do
          let a = base + 1 + (2 * j) in
          let k = Parmacs.read_i ctx a in
          if k <> 0 then begin
            let v = Parmacs.read_i ctx (a + 1) in
            Hashtbl.replace final_tbl (k - 1) v;
            digest :=
              (!digest + (k * 2654435761) + (v * 40503))
              land 0xFFFF_FFFF_FFFF
          end
        done
      done;
      check_model ();
      Parmacs.write_f ctx lay.checksum (float_of_int !digest)
    end;
    ctx.Parmacs.barrier 1
  in
  let merged_latency () =
    let m = Hist.create () in
    Array.iter
      (function None -> () | Some h -> Hist.merge ~into:m h)
      hists;
    m
  in
  let sum a = Array.fold_left ( + ) 0 a in
  let stats () =
    let h = merged_latency () in
    let gets = sum hits + sum misses in
    let ops = Hist.count h in
    [
      ("kv.ops", ops);
      ("kv.gets", gets);
      ("kv.puts", ops - gets);
      ("kv.hits", sum hits);
      ("kv.misses", sum misses);
      ("kv.inserts", sum inserts);
      ("kv.moves", sum moves);
      ("kv.model_ok", !model_ok);
      ("kv.lat_p50", Hist.percentile h 50.0);
      ("kv.lat_p99", Hist.percentile h 99.0);
      ("kv.lat_p999", Hist.percentile h 99.9);
      ("kv.lat_max", Hist.max_value h);
      ("kv.lat_mean", int_of_float (Hist.mean h));
    ]
  in
  let app =
    {
      Parmacs.name =
        Printf.sprintf "kv %dk/%ds" p.load.Loadgen.keys p.shards;
      shared_words = lay.words;
      eager_lock_hints = [];
      init = (fun _mem -> reset ());
      work;
      checksum_addr = lay.checksum;
      stats;
      max_procs = max_int;
    }
  in
  let final () =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) final_tbl [])
  in
  ignore !ran_nprocs;
  { app; params = p; results = gather; latency = merged_latency; final }
