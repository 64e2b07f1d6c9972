module Engine = Shm_sim.Engine
module Waitq = Shm_sim.Waitq
module Lifecycle = Shm_sim.Lifecycle
module Counters = Shm_stats.Counters
module Fabric = Shm_net.Fabric
module Memory = Shm_memsys.Memory
module Private_cache = Shm_memsys.Private_cache
module Hw_sync = Shm_memsys.Hw_sync
module Parmacs = Shm_parmacs.Parmacs

(* The one runner behind every machine (DESIGN.md §15).  It takes a
   validated, trimmed tree whose engines are already resolved, mounts
   the root engine and any hardware domains nested below it, seats each
   processor, and runs the app.  Three root shapes exist:

   - a software-DSM root: one memory per root member (a bare processor
     or a hardware domain), kept coherent by messages;
   - a hardware root: one memory, the members are processors;
   - a bare processor count (the uniprocessor): one memory, no engine.

   A processor's access path is chosen once, when it is spawned, from
   its seat in the tree — never per access. *)

type tree = Cpus of int | Dom of (module Shm_proto.ENGINE) * tree list

let page_words = 512

(* log2 page_words: the software-TLB fast path indexes a node's rights
   bytes with [addr lsr page_shift]. *)
let page_shift =
  let rec go s = if 1 lsl s >= page_words then s else go (s + 1) in
  go 0

(* Backstop for fault-mode runs with no explicit max_cycles: generous
   enough for any paper-scale run (~1e10 cycles), small enough that a
   retransmission livelock surfaces as Engine.Watchdog instead of an
   apparent hang. *)
let default_fault_watchdog = 200_000_000_000

(* A hardware domain nested below a software-DSM root.  It serves only
   guards and [rmw]: locks go to the root engine, and barriers climb the
   last-arriver chain through the [sync_base] slice of its node's sync
   region. *)
type dom = {
  inst : Shm_proto.instance;
  expected : int;  (* direct participants: processors + sub-domains *)
  sync_base : int;
  waitqs : (int, Waitq.t) Hashtbl.t;  (* per barrier id *)
}

type seat =
  | Solo of Private_cache.t  (* the uniprocessor *)
  | Bare of int * Private_cache.t
      (* root member [top] of a software-DSM root: private cache and
         the rights-byte TLB fast path *)
  | Member of int  (* processor [cpu] of a hardware root *)
  | Nested of int * (dom * int) array
      (* under root member [top], inside hardware domains: (domain,
         member index) pairs from the leaf domain outward *)

let rec count_doms = function
  | Cpus _ -> 0
  | Dom (_, cs) -> List.fold_left (fun a c -> a + count_doms c) 1 cs

(* Hardware engines never touch the fabric: their levels are wired. *)
let hw_ctx eng counters ~nodes ~shared_words ~mem profile =
  { Shm_proto.eng; counters; fabric = Fabric.crossbar_sim; nodes; page_words;
    shared_words; memories = [| mem |]; eager_lock_hints = [];
    hw_profile = Some profile; lifecycle = None }

(* The six word accessors from a read guard and a write guard. *)
let guarded ~mem ~fcell ~icell rg wg =
  ( (fun addr -> rg addr; Memory.get mem addr),
    (fun addr v -> wg addr; Memory.set mem addr v),
    (fun addr -> rg addr; fcell := Memory.get_float mem addr),
    (fun addr -> wg addr; Memory.set_float mem addr !fcell),
    (fun addr -> rg addr; icell := Memory.get_int mem addr),
    fun addr -> wg addr; Memory.set_int mem addr !icell )

(* Batched range ops: the guards validate runs, and a private cache, if
   any, is charged for each validated run before its data moves. *)
let batched f ~mem ~pc ~rguard ~wguard =
  let via charge guard =
    match pc with
    | None -> guard
    | Some pc ->
        fun addr words ~f:move ->
          guard addr words ~f:(fun a l ->
              charge pc f a l;
              move a l)
  in
  Parmacs.range_ops_of_runs ~mem
    ~read_run:(via Private_cache.read_range rguard)
    ~write_run:(via Private_cache.write_range wguard)

let unguarded addr words ~f = f addr words

let run ~name ~clock_mhz ~fabric_of ~cache_cfg ~bus_profile ~faults ~crash
    ~max_cycles ~instrument ~eager tree (app : Parmacs.app) ~nprocs =
  let eng = Instrument.engine instrument in
  let counters = Counters.create () in
  let seats = ref [] in
  let seat name s = seats := (name, s) :: !seats in
  let memories, root, doms, lifecycle =
    match tree with
    | Cpus _ ->
        let mem = Memory.create ~words:app.shared_words in
        app.init mem;
        seat "cpu0" (Solo (Private_cache.create (Option.get cache_cfg)));
        ([| mem |], None, [], None)
    | Dom ((module E), _) when E.kind = Shm_proto.Hw ->
        let mem =
          Memory.create ~words:(app.shared_words + Hw_sync.region_words)
        in
        app.init mem;
        let inst =
          E.mount
            (hw_ctx eng counters ~nodes:nprocs
               ~shared_words:app.shared_words ~mem bus_profile)
        in
        inst.Shm_proto.start ();
        for cpu = 0 to nprocs - 1 do
          seat (Printf.sprintf "cpu%d" cpu) (Member cpu)
        done;
        ([| mem |], Some inst, [], None)
    | Dom ((module E), members) ->
        (* Round up to whole pages: twins and diffs work page-at-a-time. *)
        let shared_words =
          (app.shared_words + page_words - 1) / page_words * page_words
        in
        let tops =
          Array.of_list
            (List.concat_map
               (function
                 | Cpus n -> List.init n (fun _ -> None) | d -> [ Some d ])
               members)
        in
        let ntops = Array.length tops in
        let flat = Array.for_all Option.is_none tops in
        (* Crash-free runs construct no lifecycle at all. *)
        let lifecycle =
          if Lifecycle.active crash then
            Some (Lifecycle.create eng counters crash ~nodes:ntops)
          else None
        in
        let image = Memory.create ~words:shared_words in
        app.init image;
        let memories =
          Array.map
            (fun top ->
              let ndoms = Option.fold ~none:0 ~some:count_doms top in
              let m =
                Memory.create
                  ~words:(shared_words + (ndoms * Hw_sync.region_words))
              in
              Memory.blit ~src:image ~src_pos:0 ~dst:m ~dst_pos:0
                ~len:shared_words;
              m)
            tops
        in
        let inst =
          E.mount
            { Shm_proto.eng; counters; nodes = ntops; page_words; shared_words;
              memories; hw_profile = None; lifecycle;
              fabric = { ((Option.get fabric_of) ()) with Fabric.faults };
              eager_lock_hints = (if eager then app.eager_lock_hints else []) }
        in
        let caches = Array.make ntops None in
        (* Nested domains mount in preorder per node; domain [j] of a
           node owns the sync-region slice at [shared_words + j *
           region_words] of that node's memory, so sibling and nested
           domains never collide on lock or barrier words. *)
        let top_doms = Array.make ntops [] in
        Array.iteri
          (fun top t ->
            let next_j = ref 0 and next_c = ref 0 in
            let fiber_name () =
              let c = !next_c in
              incr next_c;
              if flat then Printf.sprintf "cpu%d" top
              else Printf.sprintf "n%dc%d" top c
            in
            let rec mount_dom ~above = function
              | Cpus _ -> ()
              | Dom ((module D), children) ->
                  let sync_base =
                    shared_words + (!next_j * Hw_sync.region_words)
                  in
                  incr next_j;
                  let expected =
                    List.fold_left
                      (fun a c -> a + match c with Cpus n -> n | Dom _ -> 1)
                      0 children
                  in
                  let dinst =
                    D.mount
                      (hw_ctx eng counters ~nodes:expected
                         ~shared_words:sync_base ~mem:memories.(top)
                         Shm_proto.Hs_node_bus)
                  in
                  if dinst.Shm_proto.rmw = None then
                    invalid_arg
                      (Printf.sprintf
                         "platform %S: engine %S provides no atomic rmw and \
                          cannot anchor a hierarchical barrier level"
                         name D.name);
                  let d =
                    { inst = dinst; expected; sync_base;
                      waitqs = Hashtbl.create 8 }
                  in
                  top_doms.(top) <- d :: top_doms.(top);
                  ignore
                    (List.fold_left
                       (fun m c ->
                         match c with
                         | Cpus n ->
                             for k = 0 to n - 1 do
                               seat (fiber_name ())
                                 (Nested
                                    (top, Array.of_list ((d, m + k) :: above)))
                             done;
                             m + n
                         | Dom _ ->
                             mount_dom ~above:((d, m) :: above) c;
                             m + 1)
                       0 children)
            in
            match t with
            | Some d -> mount_dom ~above:[] d
            | None ->
                if inst.Shm_proto.access_rights = None then
                  invalid_arg
                    (Printf.sprintf
                       "platform %S: engine %S provides no page table for \
                        the software-TLB fast path"
                       name E.name);
                let pc = Private_cache.create (Option.get cache_cfg) in
                caches.(top) <- Some pc;
                seat (fiber_name ()) (Bare (top, pc)))
          tops;
        inst.Shm_proto.set_page_hook (fun ~node ~page ->
            let addr = page * page_words in
            Option.iter
              (fun pc ->
                Private_cache.invalidate_range pc ~addr ~words:page_words)
              caches.(node);
            List.iter
              (fun d ->
                Option.iter
                  (fun iv -> iv ~addr ~words:page_words)
                  d.inst.Shm_proto.invalidate_range)
              top_doms.(node));
        inst.Shm_proto.start ();
        ( memories,
          Some inst,
          List.concat (Array.to_list top_doms),
          lifecycle )
  in
  let root_inst () = Option.get root in
  let waitq d b =
    match Hashtbl.find_opt d.waitqs b with
    | Some wq -> wq
    | None ->
        let wq = Waitq.create eng in
        Hashtbl.add d.waitqs b wq;
        wq
  in
  (* Hierarchical barrier: an on-domain counter per level; the last
     direct participant to arrive climbs one level (ultimately arriving
     at the root engine), then on the way down bumps the generation word
     and wakes its domain's waiters, each of which re-reads the
     generation through its own level's coherence. *)
  let hier_barrier f ~top ~chain b =
    Engine.with_category f Engine.Barrier_wait @@ fun () ->
    let rec arrive k =
      if k >= Array.length chain then
        (root_inst ()).Shm_proto.barrier_arrive f ~node:top ~id:b
      else begin
        let d, m = chain.(k) in
        let rmw = Option.get d.inst.Shm_proto.rmw in
        let counter = d.sync_base + Hw_sync.max_locks + b in
        let gen = counter + Hw_sync.max_barriers in
        if Int64.to_int (rmw f ~node:m counter Int64.succ) + 1 = d.expected
        then begin
          ignore (rmw f ~node:m counter (fun _ -> 0L));
          arrive (k + 1);
          ignore (rmw f ~node:m gen Int64.succ);
          ignore (Waitq.wake_all (waitq d b) ~at:(Engine.clock f))
        end
        else begin
          Waitq.wait f (waitq d b);
          d.inst.Shm_proto.read_guard f ~node:m gen
        end
      end
    in
    arrive 0
  in
  let ctx_of f id seat =
    let fcell = ref 0.0 and icell = ref 0 in
    let ctx (read, write, readf, writef, readi, writei) range ~lock ~unlock
        ~barrier =
      { Parmacs.id; nprocs; read; write; fcell; readf; writef; icell; readi;
        writei; range; lock; unlock; barrier;
        compute = (fun n -> Engine.advance f n);
        clock = (fun () -> Engine.clock f) }
    in
    match seat with
    | Solo pc ->
        let mem = memories.(0) in
        ctx
          (guarded ~mem ~fcell ~icell
             (fun a -> Private_cache.read pc f a)
             (fun a -> Private_cache.write pc f a))
          (batched f ~mem ~pc:(Some pc) ~rguard:unguarded ~wguard:unguarded)
          ~lock:ignore ~unlock:ignore ~barrier:ignore
    | Member cpu ->
        let inst = root_inst () and mem = memories.(0) in
        ctx
          ( (fun addr ->
              inst.Shm_proto.read_guard f ~node:cpu addr;
              Memory.get mem addr),
            (fun addr v ->
              inst.Shm_proto.write_guard f ~node:cpu addr;
              Memory.set mem addr v),
            (fun addr ->
              inst.Shm_proto.read_guard f ~node:cpu addr;
              fcell := Memory.get_float mem addr),
            (fun addr ->
              inst.Shm_proto.write_guard f ~node:cpu addr;
              Memory.set_float mem addr !fcell),
            (fun addr ->
              inst.Shm_proto.read_guard f ~node:cpu addr;
              icell := Memory.get_int mem addr),
            fun addr ->
              inst.Shm_proto.write_guard f ~node:cpu addr;
              Memory.set_int mem addr !icell )
          (batched f ~mem ~pc:None
             ~rguard:(inst.Shm_proto.read_range_guard f ~node:cpu)
             ~wguard:(inst.Shm_proto.write_range_guard f ~node:cpu))
          ~lock:(fun l -> inst.Shm_proto.acquire f ~node:cpu ~lock:l)
          ~unlock:(fun l -> inst.Shm_proto.release f ~node:cpu ~lock:l)
          ~barrier:(fun b -> inst.Shm_proto.barrier_arrive f ~node:cpu ~id:b)
    | Nested (top, chain) ->
        let dsm = root_inst () and mem = memories.(top) in
        let nlev = Array.length chain in
        (* Reads: the DSM guard, then hardware levels outer to leaf.
           Writes: hardware transactions leaf outward (they can yield),
           then the DSM guard, then the store with no yield in between:
           a same-node release yielding there would close the interval
           and lose this write from its diff.  That interleaving is too
           delicate to batch, so ranges run word by word. *)
        let ((read, write, _, _, _, _) as word) =
          guarded ~mem ~fcell ~icell
            (fun addr ->
              dsm.Shm_proto.read_guard f ~node:top addr;
              for k = nlev - 1 downto 0 do
                let d, m = chain.(k) in
                d.inst.Shm_proto.read_guard f ~node:m addr
              done)
            (fun addr ->
              for k = 0 to nlev - 1 do
                let d, m = chain.(k) in
                d.inst.Shm_proto.write_guard f ~node:m addr
              done;
              dsm.Shm_proto.write_guard f ~node:top addr)
        in
        ctx word
          (Parmacs.range_ops_wordwise ~read ~write)
          ~lock:(fun l -> dsm.Shm_proto.acquire f ~node:top ~lock:l)
          ~unlock:(fun l -> dsm.Shm_proto.release f ~node:top ~lock:l)
          ~barrier:(fun b -> hier_barrier f ~top ~chain b)
    | Bare (node, pc) ->
        let inst = root_inst () and mem = memories.(node) in
        (* Software-TLB fast path: one byte load decides whether the
           guard call can be skipped (page readable / writable with the
           twin in place).  The engine keeps the byte current on every
           transition, so the fast path is exactly the guard's no-op
           branch. *)
        let rights = (Option.get inst.Shm_proto.access_rights) ~node in
        let shift = page_shift in
        let read addr =
          if Bytes.unsafe_get rights (addr lsr shift) = '\000' then
            inst.Shm_proto.read_guard f ~node addr;
          Private_cache.read pc f addr;
          Memory.get mem addr
        and write addr v =
          if Bytes.unsafe_get rights (addr lsr shift) <> '\002' then
            inst.Shm_proto.write_guard f ~node addr;
          Private_cache.write pc f addr;
          Memory.set mem addr v
        and readf addr =
          if Bytes.unsafe_get rights (addr lsr shift) = '\000' then
            inst.Shm_proto.read_guard f ~node addr;
          Private_cache.read pc f addr;
          fcell := Memory.get_float mem addr
        and writef addr =
          if Bytes.unsafe_get rights (addr lsr shift) <> '\002' then
            inst.Shm_proto.write_guard f ~node addr;
          Private_cache.write pc f addr;
          Memory.set_float mem addr !fcell
        and readi addr =
          if Bytes.unsafe_get rights (addr lsr shift) = '\000' then
            inst.Shm_proto.read_guard f ~node addr;
          Private_cache.read pc f addr;
          icell := Memory.get_int mem addr
        and writei addr =
          if Bytes.unsafe_get rights (addr lsr shift) <> '\002' then
            inst.Shm_proto.write_guard f ~node addr;
          Private_cache.write pc f addr;
          Memory.set_int mem addr !icell
        in
        let ranges read write rguard wguard =
          if inst.Shm_proto.wordwise_ranges then
            Parmacs.range_ops_wordwise ~read ~write
          else batched f ~mem ~pc:(Some pc) ~rguard ~wguard
        in
        let rguard = inst.Shm_proto.read_range_guard f ~node
        and wguard = inst.Shm_proto.write_range_guard f ~node
        and lock l = inst.Shm_proto.acquire f ~node ~lock:l
        and unlock l = inst.Shm_proto.release f ~node ~lock:l
        and barrier b = inst.Shm_proto.barrier_arrive f ~node ~id:b in
        (match lifecycle with
        | None ->
            ctx
              (read, write, readf, writef, readi, writei)
              (ranges read write rguard wguard)
              ~lock ~unlock ~barrier
        | Some lc ->
            (* Under a crash policy every shared access and sync op first
               gates on the node's liveness: a crashed node's processors
               park at their next shared access (the failure-atomicity
               boundary) and resume at the restart cycle.  Crash-free
               runs keep the direct closures above. *)
            let g () = Lifecycle.gate lc f ~node in
            let gated h x =
              g ();
              h x
            in
            let gated_range guard addr words ~f =
              g ();
              guard addr words ~f
            in
            let read = gated read
            and write addr v =
              g ();
              write addr v
            in
            ctx
              (read, write, gated readf, gated writef, gated readi,
               gated writei)
              (ranges read write (gated_range rguard) (gated_range wguard))
              ~lock:(gated lock) ~unlock:(gated unlock)
              ~barrier:(gated barrier))
  in
  let ends = Array.make nprocs 0 in
  let fibers =
    Array.of_list
      (List.mapi
         (fun p (fiber_name, s) ->
           Engine.spawn eng ~name:fiber_name ~at:0 (fun f ->
               app.work (ctx_of f p s);
               ends.(p) <- Engine.clock f))
         (List.rev !seats))
  in
  Option.iter Lifecycle.start lifecycle;
  let max_cycles =
    match max_cycles with
    | Some _ -> max_cycles
    | None ->
        if Fabric.faults_active faults || lifecycle <> None then
          Some default_fault_watchdog
        else None
  in
  (* Blocked-fiber reports carry the pending-retransmission summary and,
     under a crash policy, the lifecycle's liveness note, so "blocked on
     a crashed peer" reads differently from a genuine deadlock. *)
  let diag () =
    let base =
      match root with Some i -> i.Shm_proto.retx_note () | None -> ""
    in
    match lifecycle with
    | None -> base
    | Some lc ->
        let ln = Lifecycle.note lc in
        if base = "" then ln else base ^ "; " ^ ln
  in
  Engine.run ?max_cycles ~diag eng;
  Option.iter (fun i -> i.Shm_proto.check_invariants ()) root;
  List.iter (fun d -> d.inst.Shm_proto.check_invariants ()) doms;
  Instrument.finish instrument counters fibers;
  List.iter (fun (k, v) -> Counters.add counters k v) (app.stats ());
  {
    Report.platform = name;
    app = app.name;
    nprocs;
    cycles = Array.fold_left max 0 ends;
    clock_mhz;
    checksum = Parmacs.checksum_of memories.(0) app;
    counters = Counters.to_list counters;
  }
