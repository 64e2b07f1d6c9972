(* The declarative topology layer (DESIGN.md §15): any valid random
   topology must run the paper's applications to the same answers as a
   flat platform, and invalid machine x engine x topology combinations
   must be refused before any engine state exists.  The named platforms'
   spellings are pinned row by row in test_baseline.ml. *)

module Parmacs = Shm_parmacs.Parmacs
module Registry = Shm_apps.Registry
module Platform = Shm_platform.Platform
module Report = Shm_platform.Report
module Machines = Shm_platform.Machines
module Topology = Shm_platform.Topology

let quick_app name = Registry.app ~scale:Registry.Quick name

let run_report (p : Platform.t) app ~n =
  try p.Platform.run app ~nprocs:n
  with e ->
    Alcotest.failf "%s failed on %d procs: %s" p.Platform.name n
      (Printexc.to_string e)

let strip_report (r : Report.t) =
  (r.Report.nprocs, r.Report.cycles, r.Report.checksum, r.Report.counters)

(* The topo: prefix on [Machines.get] is the same machine again. *)
let test_topo_prefix () =
  let app () = quick_app "sor" in
  let direct = run_report (Machines.topology "lrc(mesi*8 x 32)") (app ()) ~n:8 in
  let prefixed = run_report (Machines.get "topo:lrc(mesi*8 x 32)") (app ()) ~n:8 in
  Alcotest.(check bool)
    "topo: prefix builds the same machine" true
    (strip_report direct = strip_report prefixed)

(* {2 Spec strings round-trip} *)

let test_spec_roundtrip () =
  List.iter
    (fun spec ->
      let t, _ = Topology.of_string spec in
      Alcotest.(check string)
        (Printf.sprintf "canonical form of %S" spec)
        spec (Topology.to_string t);
      let t2, _ = Topology.of_string (Topology.to_string t) in
      Alcotest.(check bool)
        (Printf.sprintf "%S reparses to itself" spec)
        true (t = t2))
    [
      "lrc*8";
      "directory*256";
      "lrc(mesi*8 x 32)";
      "lrc(mesi*4, mesi*8 x 2, 3)";
      "erc(directory(mesi*2 x 2) x 2)";
    ]

(* {2 Random topologies: the property gate}

   Any valid topology must run the five paper applications deadlock-free
   and land on exactly the checksum the flat AS cluster computes at the
   same processor count — same computation, different machine — with
   the network counters conserved (fault-free runs deliver everything
   they offer). *)

let tree_gen : Topology.tree QCheck.Gen.t =
  let open QCheck.Gen in
  let* root = oneofl [ "lrc"; "eager-lrc"; "erc"; "ivy"; "tardis" ] in
  let hw_dom =
    let* e = oneofl [ "mesi"; "directory" ] in
    let* k = int_range 1 4 in
    let* deep = frequency [ (4, return false); (1, return true) ] in
    if deep then
      let* e2 = oneofl [ "mesi"; "directory" ] in
      let* k2 = int_range 1 2 in
      return
        (Topology.Dom
           {
             engine = e;
             children =
               [
                 Topology.Dom { engine = e2; children = [ Topology.Cpus k2 ] };
                 Topology.Cpus k;
               ];
           })
    else return (Topology.Dom { engine = e; children = [ Topology.Cpus k ] })
  in
  let child =
    frequency [ (1, map (fun n -> Topology.Cpus n) (int_range 1 4)); (3, hw_dom) ]
  in
  let* nchildren = int_range 1 4 in
  let* children = list_repeat nchildren child in
  return (Topology.Dom { engine = root; children })

let tree_arbitrary =
  QCheck.make tree_gen ~print:(fun t -> Topology.to_string t)

let counter v r =
  match List.assoc_opt v r.Report.counters with Some n -> n | None -> 0

let prop_random_topology_runs =
  QCheck.Test.make ~count:6 ~name:"random topology: five apps, conserved"
    tree_arbitrary (fun t ->
      Topology.validate ~host:(Topology.host_sim ()) t;
      let cap = Topology.capacity t in
      (* Run below capacity too, so greedy trimming is exercised. *)
      let n = max 1 (cap - (cap mod 3)) in
      let platform =
        Topology.build ~host:(Topology.host_sim ())
          ~max_cycles:200_000_000_000 t
      in
      List.for_all
        (fun app_name ->
          let r = run_report platform (quick_app app_name) ~n in
          let reference =
            run_report (Machines.get "as") (quick_app app_name) ~n
          in
          if r.Report.checksum <> reference.Report.checksum then
            QCheck.Test.fail_reportf "%s on %s: checksum %h <> flat %h"
              app_name (Topology.to_string t) r.Report.checksum
              reference.Report.checksum;
          if counter "net.msgs.offered" r <> counter "net.msgs.delivered" r
          then
            QCheck.Test.fail_reportf
              "%s on %s: offered %d <> delivered %d (fault-free run)"
              app_name (Topology.to_string t)
              (counter "net.msgs.offered" r)
              (counter "net.msgs.delivered" r);
          if counter "net.msgs.dropped" r <> 0 then
            QCheck.Test.fail_reportf "%s on %s: dropped %d on a fault-free run"
              app_name (Topology.to_string t)
              (counter "net.msgs.dropped" r);
          true)
        [ "sor"; "tsp"; "water"; "ilink-clp"; "ilink-bad" ])

(* Regression from the random-topology property (QCHECK_SEED=2): on this
   tree a lock grant filled the gap in front of an eager update parked
   out of order, the parked update's notice was never registered, and a
   later fault skipped its diff — a processor then read a stale force
   under the molecule's lock. *)
let test_parked_eager_update () =
  let spec = "eager-lrc(mesi*4, directory*3, directory*1, 3)" in
  let r = run_report (Machines.topology spec) (quick_app "water") ~n:9 in
  let flat = run_report (Machines.get "as") (quick_app "water") ~n:9 in
  Alcotest.(check (float 0.0))
    ("water on " ^ spec) flat.Report.checksum r.Report.checksum

(* {2 A hybrid past the named platforms' ceiling}

   The acceptance bar for the layer: a >= 512-processor hybrid completes
   the five-app quick suite, checksums equal to a flat hardware machine
   of the same size. *)

let test_hybrid_512 () =
  let shape = "lrc(mesi*8 x 64)" in
  let reference = "directory*512" in
  List.iter
    (fun app_name ->
      let app () =
        Registry.app ~scale:Registry.Quick ~params:[ ("slots", "512") ]
          app_name
      in
      let r = run_report (Machines.topology shape) (app ()) ~n:512 in
      let ref_r = run_report (Machines.topology reference) (app ()) ~n:512 in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%s at 512 procs" app_name)
        ref_r.Report.checksum r.Report.checksum)
    [ "sor"; "tsp"; "water"; "ilink-clp"; "ilink-bad" ]

(* {2 Refusals}

   Every invalid combination must raise Invalid_argument with a
   descriptive message, before any engine state is constructed (the
   builder validates the whole tree first). *)

let check_refused what f =
  match f () with
  | exception Invalid_argument msg ->
      if String.length msg < 20 then
        Alcotest.failf "%s: refusal message too terse: %S" what msg
  | _ -> Alcotest.failf "%s: was accepted" what

let test_refusals () =
  (* Parser errors. *)
  check_refused "unbalanced spec" (fun () -> Machines.topology "lrc(mesi*8");
  check_refused "bare processor count" (fun () -> Machines.topology "8");
  check_refused "missing repeat count" (fun () ->
      Machines.topology "lrc(mesi*8 x)");
  check_refused "unknown host" (fun () -> Machines.topology "lrc*8@cray");
  (* Structural errors. *)
  check_refused "unknown engine" (fun () -> Machines.topology "paxos*8");
  check_refused "sdsm under hardware root" (fun () ->
      Machines.topology "mesi(lrc*8)");
  check_refused "sdsm below the root" (fun () ->
      Machines.topology "lrc(ivy*8)");
  check_refused "zero processors" (fun () -> Machines.topology "lrc*0");
  check_refused "sdsm root on a cabinet host" (fun () ->
      Machines.topology "lrc*8@sgi");
  check_refused "bare root of more than one processor" (fun () ->
      Machines.topology "2@dec");
  check_refused "uniprocessor without a private cache" (fun () ->
      Machines.topology "1@sgi");
  (* Machine x protocol x topology combinations. *)
  check_refused "--protocol with a topology" (fun () ->
      Machines.get ~protocol:"ivy" "topo:lrc*8");
  check_refused "hardware engine on the DSM cluster" (fun () ->
      Machines.get ~protocol:"mesi" "treadmarks");
  check_refused "software engine on the bus machine" (fun () ->
      Machines.get ~protocol:"lrc" "sgi");
  check_refused "software engine below an HS root" (fun () ->
      Machines.get ~protocol:"mesi" "hs");
  (* Policies the topology cannot honour. *)
  check_refused "faults on a hybrid" (fun () ->
      Machines.get
        ~faults:{ Shm_net.Fabric.no_faults with Shm_net.Fabric.drop_miss = 0.1 }
        "topo:lrc(mesi*8 x 4)");
  check_refused "crash on a hybrid" (fun () ->
      Machines.get
        ~crash:
          { Shm_sim.Lifecycle.none with
            Shm_sim.Lifecycle.crashes = [ (1, 1000) ] }
        "topo:lrc(mesi*8 x 4)");
  (* Capacity is enforced at run time, before anything executes. *)
  let p = Machines.topology "lrc(mesi*4 x 2)" in
  check_refused "nprocs beyond capacity" (fun () ->
      p.Platform.run (quick_app "sor") ~nprocs:9);
  check_refused "nprocs beyond a flat machine's capacity" (fun () ->
      (Machines.get "sgi").Platform.run (quick_app "sor") ~nprocs:9)

let mentions msg sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1))
  in
  go 0

(* An app with one partial-sum slot per processor refuses a run with
   more processors than slots, naming the parameter, before anything is
   allocated (it used to die on an assert deep inside the run). *)
let test_slots_refused () =
  let app = Registry.app ~scale:Registry.Quick ~params:[ ("slots", "4") ] "sor" in
  match (Machines.get "topo:lrc*8").Platform.run app ~nprocs:8 with
  | _ -> Alcotest.fail "sor with 4 slots ran on 8 processors"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) ("message names slots: " ^ msg) true
        (mentions msg "slots")

(* Lock and barrier ids share one range on every machine, the hardware
   sync region's.  Water takes one lock per molecule, so more molecules
   than lock ids is refused by the registry, naming the parameter, on
   software and hardware machines alike (the TreadMarks engines used to
   die mid-run on an array bound, the hardware ones mid-run in the sync
   region).  An id past the range that reaches any engine gets the one
   refusal message. *)
let test_sync_ids_refused () =
  List.iter
    (fun spec ->
      match
        (Machines.topology spec).Platform.run
          (Registry.app ~scale:Registry.Quick
             ~params:[ ("molecules", "1100") ] "water")
          ~nprocs:4
      with
      | _ -> Alcotest.failf "water with 1100 molecules ran on %s" spec
      | exception Invalid_argument msg ->
          Alcotest.(check bool)
            (spec ^ " names molecules: " ^ msg)
            true (mentions msg "molecules"))
    [ "lrc*4"; "ivy*4"; "mesi*4@sgi" ];
  let module Hw_sync = Shm_memsys.Hw_sync in
  let refusal check id =
    match check id with
    | () -> Alcotest.fail "id accepted"
    | exception Invalid_argument msg -> msg
  in
  let probe work =
    { Parmacs.name = "id-probe"; shared_words = 512; eager_lock_hints = [];
      init = ignore; work; checksum_addr = 0; stats = Parmacs.no_stats;
      max_procs = max_int }
  in
  List.iter
    (fun spec ->
      List.iter
        (fun (what, work, expected) ->
          let p = Machines.topology spec in
          match p.Platform.run (probe work) ~nprocs:4 with
          | _ -> Alcotest.failf "%s: out-of-range %s id accepted" spec what
          | exception Invalid_argument msg ->
              Alcotest.(check string) (spec ^ " " ^ what) expected msg)
        [
          ( "lock",
            (fun ctx -> ctx.Parmacs.lock Hw_sync.max_locks),
            refusal Hw_sync.check_lock Hw_sync.max_locks );
          ( "barrier",
            (fun ctx -> ctx.Parmacs.barrier Hw_sync.max_barriers),
            refusal Hw_sync.check_barrier Hw_sync.max_barriers );
        ])
    [ "lrc*4"; "erc*4"; "ivy*4"; "tardis*4"; "mesi*4@sgi"; "directory*4" ]

let suite =
  [
    Alcotest.test_case "topo: prefix on Machines.get" `Quick test_topo_prefix;
    Alcotest.test_case "spec strings round-trip" `Quick test_spec_roundtrip;
    (* Run the property under a pinned PRNG state so the tier-1 gate is
       deterministic; QCHECK_SEED still picks a different excursion
       (sweeping it is how the eager-update broadcast-reordering bug was
       found). *)
    Alcotest.test_case "random topology: five apps, conserved" `Slow
      (fun () ->
        let seed =
          match Sys.getenv_opt "QCHECK_SEED" with
          | Some s -> int_of_string s
          | None -> 0xC0FFEE
        in
        QCheck.Test.check_exn
          ~rand:(Random.State.make [| seed |])
          prop_random_topology_runs);
    Alcotest.test_case "parked eager update keeps its notice" `Quick
      test_parked_eager_update;
    Alcotest.test_case "512-processor hybrid, five apps" `Slow test_hybrid_512;
    Alcotest.test_case "refusals before construction" `Quick test_refusals;
    Alcotest.test_case "nprocs beyond an app's slots refused" `Quick
      test_slots_refused;
    Alcotest.test_case "lock and barrier ids refused alike" `Quick
      test_sync_ids_refused;
  ]
