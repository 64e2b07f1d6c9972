(* One measured iteration of a benchmark workload, as a process of its own.

     measure.exe run --workload W --seed N --traced 0|1
     measure.exe layers --workload W

   [run] builds the workload's app and machine through the public
   constructors, runs it once with [Platform.run], checks the output and
   prints one JSON object on stdout.  Everything is measured from outside
   the simulator: host timestamps around the calls into each layer, a
   wrapper around [Parmacs.app.work] that sees every [Parmacs.ctx]
   operation, and the run's [Report.t].  With [--traced 1] the machine
   is built with [Instrument.breakdown_only] and every ctx operation is
   timed; the untraced run only stamps the first [work] entry (the end
   of set-up) and the simulated clock at barrier exits.

   [layers] times the standalone constructors of the software-DSM layers
   ([Shm_tmk.System.create], [Shm_net.Fabric.create] +
   [Shm_net.Reliable.create]) at the workload's DSM width. *)

module Parmacs = Shm_parmacs.Parmacs
module Platform = Shm_platform.Platform
module Machines = Shm_platform.Machines
module Instrument = Shm_platform.Instrument
module Report = Shm_platform.Report
module Registry = Shm_apps.Registry
module Sor = Shm_apps.Sor
module Kvstore = Shm_apps.Kvstore

external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (clock_ns ())
let secs ns = float_of_int ns *. 1e-9

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type workload = {
  name : string;
  nprocs : int;
  dsm_nodes : int;  (** software-DSM nodes the machine mounts; 0 = none *)
  buses : int;  (** snooping buses, for [bus.utilization] *)
  build_app : seed:int -> Parmacs.app * Kvstore.t option;
  build_machine : Instrument.t -> Platform.t;
  kv_requests : int;  (** requests per processor; 0 when not a KV run *)
}

(* The TP1 AS shape: quick TP1 grid with a compute-dense stencil and one
   reduction slot per processor.  Seedless. *)
let sor_as256 =
  let params =
    { Sor.default_params with rows = 256; cols = 128; iters = 2;
      point_cycles = 480; slots = 256 }
  in
  {
    name = "sor-as256";
    nprocs = 256;
    dsm_nodes = 256;
    buses = 0;
    build_app = (fun ~seed:_ -> (Sor.make params, None));
    build_machine =
      (fun instrument -> Machines.topology ~instrument "lrc*256");
    kv_requests = 0;
  }

(* Locked Water (one lock per molecule) on the all-hardware machine.
   Seedless. *)
let water_ah64 =
  {
    name = "water-ah64";
    nprocs = 64;
    dsm_nodes = 0;
    buses = 0;
    build_app =
      (fun ~seed:_ ->
        ( Registry.app ~scale:Registry.Default
            ~params:[ ("molecules", "768"); ("steps", "3") ]
            "water",
          None ));
    build_machine = (fun instrument -> Machines.get ~instrument "ah");
    kv_requests = 0;
  }

(* The sharded KV store on the hybrid (4 SMP nodes of 8) under an
   open-loop Zipf load below saturation: at a 2M-cycle mean gap even the
   trace's 4x burst phase does not queue (README.md).  The seed drives the
   load generator. *)
let kv_requests = 1500

let kv_hs32 =
  {
    name = "kv-hs32";
    nprocs = 32;
    dsm_nodes = 4;
    buses = 4;
    build_app =
      (fun ~seed ->
        let kv =
          Registry.kv ~scale:Registry.Default
            ~params:
              [
                ("seed", string_of_int seed);
                ("requests", string_of_int kv_requests);
                ("mean-gap", "2000000");
              ]
            ()
        in
        (kv.Kvstore.app, Some kv));
    build_machine = (fun instrument -> Machines.get ~instrument "hs");
    kv_requests;
  }

let workloads = [ sor_as256; water_ah64; kv_hs32 ]

(* ------------------------------------------------------------------ *)
(* Host-time accounting of ctx operations                              *)

(* Buckets partition the host time between the first [work] entry and
   the last [work] return: each interval goes to the op kind that was
   entered last ("from an op's entry until app code resumes", whichever
   fiber's app code that is) or to [kernel] while app code runs. *)
let op_names = [| "read"; "write"; "range"; "lock"; "unlock"; "barrier"; "compute" |]
let k_read = 0
let k_write = 1
let k_range = 2
let k_lock = 3
let k_unlock = 4
let k_barrier = 5
let k_compute = 6
let k_kernel = 7
let k_outside = 8

type acct = {
  calls : int array;
  host : int array;  (** ns per bucket *)
  mutable last : int;
  mutable cur : int;
}

let acct () =
  { calls = Array.make 9 0; host = Array.make 9 0; last = 0; cur = k_outside }

let switch a k =
  let t = now_ns () in
  a.host.(a.cur) <- a.host.(a.cur) + (t - a.last);
  a.last <- t;
  a.cur <- k

let enter a k =
  switch a k;
  a.calls.(k) <- a.calls.(k) + 1

let traced_ctx a (c : Parmacs.ctx) =
  let op1 k f x =
    enter a k;
    let r = f x in
    switch a k_kernel;
    r
  in
  let op2 k f x y =
    enter a k;
    let r = f x y in
    switch a k_kernel;
    r
  in
  let op4 k f w x y z =
    enter a k;
    f w x y z;
    switch a k_kernel
  in
  let r = c.range in
  {
    c with
    read = op1 k_read c.read;
    write = op2 k_write c.write;
    readf = op1 k_read c.readf;
    writef = op1 k_write c.writef;
    readi = op1 k_read c.readi;
    writei = op1 k_write c.writei;
    range =
      {
        Parmacs.read_fs = op4 k_range r.read_fs;
        write_fs = op4 k_range r.write_fs;
        read_is = op4 k_range r.read_is;
        write_is = op4 k_range r.write_is;
      };
    lock = op1 k_lock c.lock;
    unlock = op1 k_unlock c.unlock;
    barrier = op1 k_barrier c.barrier;
    compute = op1 k_compute c.compute;
  }

(* Simulated length of each processor's barrier-to-barrier phases (the
   first one starts at [work] entry), in cycles. *)
let phase_ctx samples (c : Parmacs.ctx) =
  let last = ref (c.clock ()) in
  {
    c with
    barrier =
      (fun id ->
        c.barrier id;
        let t = c.clock () in
        samples := (t - !last) :: !samples;
        last := t);
  }

(* ------------------------------------------------------------------ *)
(* JSON output                                                         *)

let str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 || Char.code c > 0x7e ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let obj fields =
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields)
  ^ "}"

let list xs = "[" ^ String.concat ", " xs ^ "]"
let num_f x = Printf.sprintf "%.9g" x
let num_i = string_of_int
let bool b = if b then "true" else "false"

(* ------------------------------------------------------------------ *)
(* Process-level readings                                              *)

let vm_hwm_kb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* ------------------------------------------------------------------ *)
(* One run                                                             *)

type span = { sname : string; t0 : int; t1 : int }

let run_once w ~seed ~traced =
  let a = acct () in
  let samples = ref [] in
  let first_work = ref 0 and last_return = ref 0 and live = ref 0 in
  let t_start = now_ns () in
  let app, kv = w.build_app ~seed in
  let t_app = now_ns () in
  let machine =
    w.build_machine
      (if traced then Instrument.breakdown_only else Instrument.off)
  in
  let t_machine = now_ns () in
  let work ctx =
    let t = now_ns () in
    if !first_work = 0 then first_work := t;
    incr live;
    let ctx = phase_ctx samples ctx in
    if traced then begin
      switch a k_kernel;
      app.Parmacs.work (traced_ctx a ctx);
      switch a k_outside
    end
    else app.Parmacs.work ctx;
    decr live;
    if !live = 0 then last_return := now_ns ()
  in
  a.last <- t_machine;
  let report = machine.Platform.run { app with work } ~nprocs:w.nprocs in
  let t_end = now_ns () in
  let rss_kb = vm_hwm_kb () in
  let gc = Gc.quick_stat () in
  (* Output check: a fresh instance run sequentially for the paper apps;
     the KV store validates itself against its sequential model and must
     have served every request. *)
  let ref_checksum, kv_ok =
    match kv with
    | None ->
        let ref_app, _ = w.build_app ~seed in
        (Parmacs.checksum_of (Parmacs.run_sequential ref_app) ref_app, true)
    | Some _ ->
        ( report.Report.checksum,
          Report.get report "kv.model_ok" = 1
          && Report.get report "kv.ops" = w.nprocs * w.kv_requests )
  in
  let t_check = now_ns () in
  (* The sequential run reduces the per-processor partial sums of one
     processor instead of [nprocs], so the float digests agree to rounding,
     not bit for bit.  Bit-exact agreement between iterations (and between
     traced and untraced runs) is checked by run.py. *)
  let checksum_ok =
    let c = report.Report.checksum in
    Float.is_finite c
    && Float.abs (c -. ref_checksum) <= 1e-9 *. Float.max 1.0 (Float.abs ref_checksum)
  in
  let phases = Array.of_list !samples in
  Array.sort compare phases;
  let lat_p50, lat_p99, lat_n =
    match kv with
    | Some _ ->
        ( Report.get report "kv.lat_p50",
          Report.get report "kv.lat_p99",
          Report.get report "kv.ops" )
    | None -> (percentile phases 50.0, percentile phases 99.0, Array.length phases)
  in
  let spans =
    [
      { sname = "build-app"; t0 = t_start; t1 = t_app };
      { sname = "build-machine"; t0 = t_app; t1 = t_machine };
      { sname = "mount"; t0 = t_machine; t1 = !first_work };
      { sname = "simulate"; t0 = !first_work; t1 = !last_return };
      { sname = "teardown"; t0 = !last_return; t1 = t_end };
      { sname = "check"; t0 = t_end; t1 = t_check };
    ]
  in
  obj
    [
      ("ok", bool (checksum_ok && kv_ok));
      ("error", str "");
      ("buses", num_i w.buses);
      ("wall_s", num_f (secs (t_end - t_start)));
      ("setup_s", num_f (secs (!first_work - t_start)));
      ("cycles", num_i report.Report.cycles);
      ("checksum", str (Printf.sprintf "%h" report.Report.checksum));
      ("ref_checksum", str (Printf.sprintf "%h" ref_checksum));
      ("kv_ok", bool kv_ok);
      ("lat_p50_cycles", num_i lat_p50);
      ("lat_p99_cycles", num_i lat_p99);
      ("lat_samples", num_i lat_n);
      ("rss_kb", num_i rss_kb);
      ( "gc",
        obj
          [
            ("minor_words", num_f gc.Gc.minor_words);
            ("major_words", num_f gc.Gc.major_words);
            ("top_heap_words", num_i gc.Gc.top_heap_words);
          ] );
      ( "spans",
        list
          (List.map
             (fun s ->
               obj
                 [
                   ("name", str s.sname);
                   ("parent", str "run");
                   ("start_s", num_f (secs (s.t0 - t_start)));
                   ("end_s", num_f (secs (s.t1 - t_start)));
                 ])
             spans) );
      ( "ops",
        obj
          (Array.to_list
             (Array.mapi
                (fun k n ->
                  ( n,
                    obj
                      [
                        ("calls", num_i a.calls.(k));
                        ("host_s", num_f (secs a.host.(k)));
                      ] ))
                op_names)) );
      ("kernel_host_s", num_f (secs a.host.(k_kernel)));
      ( "counters",
        obj (List.map (fun (k, v) -> (k, num_i v)) report.Report.counters) );
    ]

(* ------------------------------------------------------------------ *)
(* Standalone layer constructors                                       *)

let alloc_words () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)

(* Host seconds and Mwords allocated by [f ()]. *)
let timed f =
  let w0 = alloc_words () in
  let t0 = now_ns () in
  ignore (Sys.opaque_identity (f ()));
  let t1 = now_ns () in
  let w1 = alloc_words () in
  (secs (t1 - t0), (w1 -. w0) /. 1e6)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let layers w =
  let module Fabric = Shm_net.Fabric in
  let module Reliable = Shm_net.Reliable in
  let module Tmk = Shm_tmk in
  let n = w.dsm_nodes in
  let reps = 3 in
  let tmk = ref [] and net = ref [] in
  if n > 0 then begin
    let app, _ = w.build_app ~seed:0 in
    let shared_words = (app.Parmacs.shared_words + 511) / 512 * 512 in
    let fabric_config =
      Fabric.atm_sim ~overhead:Shm_net.Overhead.treadmarks_user
    in
    for _ = 1 to reps do
      let eng = Shm_sim.Engine.create () in
      let counters = Shm_stats.Counters.create () in
      let fabric = Fabric.create eng counters fabric_config ~nodes:n in
      let memories =
        Array.init n (fun _ ->
            Shm_memsys.Memory.create
              ~words:(shared_words + Shm_memsys.Hw_sync.region_words))
      in
      (* 512-word pages, as every platform mounts them. *)
      let cfg =
        { (Tmk.Config.default ~n_nodes:n ~shared_words) with
          Tmk.Config.page_words = 512 }
      in
      tmk :=
        timed (fun () -> Tmk.System.create eng counters fabric cfg ~memories)
        :: !tmk;
      net :=
        timed (fun () ->
            let f : int Reliable.packet Fabric.t =
              Fabric.create eng counters fabric_config ~nodes:n
            in
            Reliable.create eng counters f)
        :: !net;
      Gc.full_major ()
    done
  end;
  let med l f = num_f (median (List.map f l)) in
  obj
    [
      ("ok", "true");
      ("tmk.create_s", med !tmk fst);
      ("tmk.create_mwords", med !tmk snd);
      ("net.create_s", med !net fst);
      ("net.create_mwords", med !net snd);
    ]

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let () =
  let mode = ref "" and wname = ref "" and seed = ref 1 and traced = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string wname, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N load-generator seed (kv only)");
      ("--traced", Arg.Set_int traced, "0|1 time every ctx operation");
    ]
  in
  let usage = "measure.exe (run|layers) --workload NAME [--seed N] [--traced 0|1]" in
  Arg.parse spec (fun m -> mode := m) usage;
  let w =
    match List.find_opt (fun w -> w.name = !wname) workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload " ^ !wname);
        exit 2
  in
  let out =
    match !mode with
    | "run" -> (
        try run_once w ~seed:!seed ~traced:(!traced = 1)
        with
        | ( Shm_sim.Engine.Deadlock _ | Shm_sim.Engine.Watchdog _
          | Invalid_argument _ | Failure _ ) as e ->
            obj [ ("ok", "false"); ("error", str (Printexc.to_string e)) ])
    | "layers" -> layers w
    | m ->
        prerr_endline ("unknown mode " ^ m ^ "\n" ^ usage);
        exit 2
  in
  print_endline out
