(* The coherence-engine interface: everything a machine model needs from
   a shared-memory protocol, with the protocol itself behind a module.

   A platform (lib/platform) owns the simulation engine, the memories and
   the processor fibers; a coherence engine owns how those memories are
   kept coherent — software DSM over a message fabric, or a hardware
   cache-coherence model over a bus or crossbar.  The platform builds a
   [ctx] describing the machine, calls [ENGINE.mount], and drives the
   returned [instance] from its processor fibers.  No platform names a
   concrete protocol module; they are looked up in a [Registry].

   See DESIGN.md §11 for the hook-by-hook contract. *)

module Engine = Shm_sim.Engine
module Counters = Shm_stats.Counters
module Fabric = Shm_net.Fabric
module Memory = Shm_memsys.Memory

(* ------------------------------------------------------------------ *)
(* What kind of machine an engine coheres. *)

(* [Sdsm] engines keep one memory per node coherent by exchanging
   messages over the platform's fabric; [Hw] engines model a hardware
   cache hierarchy over a single physical memory. *)
type kind = Sdsm | Hw

let kind_name = function Sdsm -> "software-DSM" | Hw -> "hardware"

(* Which interconnect a hardware engine's timing should model.  Software
   engines ignore this; the snooping engine refuses [Crossbar]. *)
type hw_profile = Sgi_bus | Sgi_bus_fast | Hs_node_bus | Crossbar

(* ------------------------------------------------------------------ *)
(* The mount context: the machine as the engine sees it. *)

type ctx = {
  eng : Engine.t;
  counters : Counters.t;
  fabric : Fabric.config;
      (* message fabric for Sdsm engines, fault policy already folded
         in; Hw engines never touch it *)
  nodes : int;  (* coherence participants: DSM nodes, or bus CPUs *)
  page_words : int;
  shared_words : int;  (* page-rounded for Sdsm machines *)
  memories : Memory.t array;
      (* one per node for Sdsm; a single shared memory for Hw *)
  eager_lock_hints : int list;
      (* app-provided eager-release locks; engines without the concept
         ignore them *)
  hw_profile : hw_profile option;  (* None on software-DSM machines *)
  lifecycle : Shm_sim.Lifecycle.t option;
      (* whole-node crash/restart policy instance; Sdsm engines that
         support recovery attach it to their fabric and register
         checkpoint/re-home/rejoin hooks, engines that cannot recover
         must refuse to mount, Hw platforms always pass None *)
}

(* ------------------------------------------------------------------ *)
(* The mounted instance: closures the platform's fibers drive. *)

type fiber = Engine.fiber

type instance = {
  i_name : string;
  wordwise_ranges : bool;
      (* true when bulk range operations must fall back to the literal
         per-word loop to stay observably identical (eager-invalidate
         RC, where a mid-run remote invalidation changes timing) *)
  access_rights : (node:int -> Bytes.t) option;
      (* per-page software-TLB bytes: '\000' fault, '\001' read-only,
         '\002' read-write; None for engines without page tables.
         Platforms index it with [addr lsr log2 page_words]. *)
  set_page_hook : (node:int -> page:int -> unit) -> unit;
      (* called whenever the engine rewrites a page's backing memory
         behind the processor's back (platforms invalidate their private
         per-node caches from it) *)
  start : unit -> unit;  (* spawn protocol daemons; after mount, once *)
  retx_note : unit -> string;  (* diagnostic line for deadlock reports *)
  read_guard : fiber -> node:int -> int -> unit;
  write_guard : fiber -> node:int -> int -> unit;
      (* coherence + timing of one word access; the caller performs the
         data movement on its own memory afterwards *)
  read_range_guard : fiber -> node:int -> int -> int -> f:(int -> int -> unit) -> unit;
  write_range_guard : fiber -> node:int -> int -> int -> f:(int -> int -> unit) -> unit;
      (* [guard f ~node addr words ~f:move] validates [addr..addr+words)
         in coherence-unit runs, calling [move run_addr run_words] for
         each validated run *)
  acquire : fiber -> node:int -> lock:int -> unit;
  release : fiber -> node:int -> lock:int -> unit;
  barrier_arrive : fiber -> node:int -> id:int -> unit;
  rmw : (fiber -> node:int -> int -> (int64 -> int64) -> int64) option;
      (* atomic read-modify-write on a shared word; hardware engines
         only (platforms build flat sync regions from it) *)
  invalidate_range : (addr:int -> words:int -> unit) option;
      (* drop cached copies of a memory range without timing; hardware
         engines only (DSM-over-bus platforms call it from page hooks) *)
  check_invariants : unit -> unit;  (* post-run structural checks *)
}

(* ------------------------------------------------------------------ *)
(* The engine signature proper. *)

module type ENGINE = sig
  val name : string
  (** Registry key, e.g. ["lrc"]; lowercase, no spaces. *)

  val kind : kind

  val describe : string
  (** One line for [shmsim protocols]. *)

  val mount : ctx -> instance
  (** Build one run's worth of protocol state over [ctx].  Mount must
      not advance the simulation clock; all costs accrue inside the
      instance hooks, attributed to the categories in
      {!Shm_sim.Engine.category} (see DESIGN.md §11). *)
end

(* ------------------------------------------------------------------ *)
(* The page-DSM node kit: the node-side plumbing every software engine
   ([lrc] and its variants, [ivy], [tardis]) builds on, polymorphic in
   the engine's message type.  An engine keeps only its protocol — page
   and lock state, messages, managers, dispatch and the bodies of its
   recovery hooks; the kit owns the per-node tables (software TLB,
   request table, in-flight fetches, steal ledger), the handler daemons,
   page geometry, crash wiring and the mounted instance.  Nothing here
   branches on which engine is calling (DESIGN.md §11). *)

module Node_kit = struct
  module Mailbox = Shm_sim.Mailbox
  module Waitq = Shm_sim.Waitq
  module Lifecycle = Shm_sim.Lifecycle
  module Reliable = Shm_net.Reliable
  module Msg = Shm_net.Msg
  module Hw_sync = Shm_memsys.Hw_sync

  (* A message that violates a manager's page state machine.  Carries
     the page, the requesting node, the manager node and a rendered
     manager state, so a protocol bug surfaced under a chaos schedule is
     diagnosable from the exception alone. *)
  exception
    Proto_error of {
      page : int;
      requester : int;
      manager : int;
      state : string;
    }

  let () =
    Printexc.register_printer (function
      | Proto_error { page; requester; manager; state } ->
          Some
            (Printf.sprintf
               "Proto_error: page %d, requester %d, manager %d: %s" page
               requester manager state)
      | _ -> None)

  type 'm t = {
    eng : Engine.t;
    net : 'm Reliable.t;
    class_of : 'm -> Msg.class_;
    size_of : 'm -> Msg.sizes;
    lifecycle : Lifecycle.t option;
    nodes : int;
    page_words : int;
    shift : int;  (** log2 page_words *)
    mutable page_hook : node:int -> page:int -> unit;
    rights : Bytes.t array;
        (** per node, one software-TLB byte per page: ['\000'] the guard
            must run, ['\001'] reads may skip it, ['\002'] reads and
            writes may.  Engines keep it a pure function of their page
            state; platforms read it on the access fast path. *)
    reqs : (int, 'm Mailbox.t) Hashtbl.t array;
        (** per node: open requests, keyed by request id *)
    next_req : int array;
    inflight : (int, Waitq.t) Hashtbl.t array;
        (** per node: page -> co-located fibers awaiting its fetch *)
    steal : int array;
        (** per node: handler CPU cycles to charge the application (on a
            uniprocessor node handler and application share the CPU) *)
  }

  (* [create] builds the node tables and the reliable channel.  Pages
     start with TLB byte [rights] everywhere, except that a single node
     never write-protects.  With a lifecycle the channel turns
     crash-aware: a packet to a down peer reports the suspected death
     once ([net.reliable.peer_down]) and parks its timer at the peer's
     restart instead of aborting, with the backoff exponent capped so
     delivery resumes promptly. *)
  let create ?lifecycle eng counters fabric ~class_of ~size_of ~nodes
      ~page_words ~shared_words ~rights =
    if page_words < 1 || page_words land (page_words - 1) <> 0 then
      invalid_arg
        (Printf.sprintf "page-DSM engine: page_words %d is not a power of two"
           page_words);
    let rec log2 s = if 1 lsl s = page_words then s else log2 (s + 1) in
    let n_pages = (shared_words + page_words - 1) / page_words in
    let net = Reliable.create eng counters fabric in
    if lifecycle <> None then
      Reliable.set_policy net
        {
          Reliable.default_policy with
          Reliable.backoff_cap = 6;
          on_peer_down = Some (fun ~src:_ ~dst:_ ~attempts:_ -> ());
        };
    let rights = if nodes = 1 then '\002' else rights in
    {
      eng;
      net;
      class_of;
      size_of;
      lifecycle;
      nodes;
      page_words;
      shift = log2 0;
      page_hook = (fun ~node:_ ~page:_ -> ());
      rights = Array.init nodes (fun _ -> Bytes.make n_pages rights);
      reqs = Array.init nodes (fun _ -> Hashtbl.create 16);
      next_req = Array.make nodes 0;
      inflight = Array.init nodes (fun _ -> Hashtbl.create 8);
      steal = Array.make nodes 0;
    }

  let page_of k addr = addr lsr k.shift
  let rights k ~node = k.rights.(node)
  let page_changed k ~node ~page = k.page_hook ~node ~page
  let overhead k = (Fabric.config (Reliable.fabric k.net)).Fabric.overhead

  let send k fiber ~src ~dst body =
    Reliable.send k.net fiber ~src ~dst ~class_:(k.class_of body)
      ~size:(k.size_of body) body

  let loopback k fiber ~node body =
    Reliable.loopback k.net fiber ~node ~class_:(k.class_of body)
      ~size:(k.size_of body) body

  (* Lock and barrier ids: one range and one refusal for every machine,
     the hardware sync region's. *)
  let check_lock = Hw_sync.check_lock
  let check_barrier = Hw_sync.check_barrier

  (* ---------------- steal ledger ------------------------------------ *)

  let charge k node cycles = k.steal.(node) <- k.steal.(node) + cycles

  (* Entry of every application-side protocol operation: catch up with
     simulated time, then pay the handler time charged meanwhile. *)
  let enter k fiber node =
    Engine.sync fiber;
    let s = k.steal.(node) in
    if s > 0 then begin
      k.steal.(node) <- 0;
      (* Handler CPU time charged to the application is protocol overhead. *)
      Engine.with_category fiber Engine.Protocol (fun () ->
          Engine.advance fiber s)
    end

  (* ---------------- request table ----------------------------------- *)

  (* [call k fiber ~node cat send reply] opens a request, hands its id to
     [send], then receives [replies] responses under category [cat],
     passing each to [reply], and closes the request. *)
  let call k fiber ~node ?(replies = 1) cat send reply =
    let req = k.next_req.(node) in
    k.next_req.(node) <- req + 1;
    let mb = Mailbox.create k.eng in
    Hashtbl.replace k.reqs.(node) req mb;
    send req;
    for _ = 1 to replies do
      reply (Engine.with_category fiber cat (fun () -> Mailbox.recv fiber mb))
    done;
    Hashtbl.remove k.reqs.(node) req

  (* Route a response to the open request it answers. *)
  let post k ~node ~req body ~at =
    match Hashtbl.find_opt k.reqs.(node) req with
    | Some mb -> Mailbox.post mb ~at body
    | None ->
        failwith
          (Printf.sprintf "node %d: response to request %d, which is not open"
             node req)

  (* ---------------- co-located fetch merging ------------------------ *)

  let fetching k ~node page = Hashtbl.mem k.inflight.(node) page

  (* [fetch k fiber ~node page ~ready body]: after [enter], wait out a
     fetch of [page] another processor of the node already started; if
     the page is still not [ready], run [body] under [Protocol] as the
     node's one fetch of it, waking the waiters when it returns. *)
  let fetch k fiber ~node page ~ready body =
    enter k fiber node;
    let inflight = k.inflight.(node) in
    let rec wait () =
      match Hashtbl.find_opt inflight page with
      | Some wq when not (ready ()) ->
          Engine.with_category fiber Engine.Net_wait (fun () ->
              Waitq.wait fiber wq);
          wait ()
      | Some _ | None -> ()
    in
    wait ();
    if not (ready ()) then
      Engine.with_category fiber Engine.Protocol @@ fun () ->
      let wq = Waitq.create k.eng in
      Hashtbl.replace inflight page wq;
      body ();
      Hashtbl.remove inflight page;
      ignore (Waitq.wake_all wq ~at:(Engine.clock fiber))

  (* ---------------- page walk --------------------------------------- *)

  (* Range guards: [guard page] once per page overlapping [addr,
     addr+words), in address order, handing each in-page run to [f
     run_addr run_words] as soon as that page's guard completes.
     Interleaving data movement page by page (rather than guarding the
     whole range up front) is what makes the range observably identical
     to the per-word loop: a fault's yield can let the handler rewrite
     later pages, and those must be re-examined when reached.  Within one
     run neither the guard's final check nor [f] may yield. *)
  let walk k addr words ~guard ~f =
    let stop = addr + words in
    let a = ref addr in
    while !a < stop do
      let page = !a lsr k.shift in
      let run = min ((page + 1) * k.page_words) stop - !a in
      guard page;
      f !a run;
      a := !a + run
    done

  (* ---------------- handler daemons and crash wiring ---------------- *)

  (* Per-node recovery bodies (DESIGN.md §13): [ckpt node] on each
     checkpoint tick for every live node, [rehome ~dead successor] when a
     crash is detected and a survivor exists, [rejoin node] at restart. *)
  type recovery = {
    ckpt : int -> unit;
    rehome : dead:int -> int -> unit;
    rejoin : int -> unit;
  }

  (* The next surviving node after [dead], in ring order. *)
  let successor k lc dead =
    let rec go i =
      if i >= k.nodes then None
      else
        let c = (dead + i) mod k.nodes in
        if Lifecycle.alive lc c then Some c else go (i + 1)
    in
    go 1

  (* Spawn one handler daemon per node: receive under [Net_wait], then
     [handle fiber node envelope] under [Protocol]. *)
  let start k ~name ?recovery handle =
    Reliable.start k.net;
    (match (k.lifecycle, recovery) with
    | None, _ -> ()
    | Some _, None ->
        invalid_arg (name ^ ": crash injection needs recovery hooks")
    | Some lc, Some r ->
        Lifecycle.on_ckpt lc (fun ~at:_ ->
            for node = 0 to k.nodes - 1 do
              if Lifecycle.alive lc node then r.ckpt node
            done);
        Lifecycle.on_detect lc (fun ~node ~at:_ ->
            Option.iter (r.rehome ~dead:node) (successor k lc node));
        Lifecycle.on_restart lc (fun ~node ~at:_ -> r.rejoin node));
    for node = 0 to k.nodes - 1 do
      ignore
        (Engine.spawn k.eng ~daemon:true
           ~name:(Printf.sprintf "%s-handler-%d" name node)
           ~at:0
           (fun fiber ->
             let rec loop () =
               let env =
                 Engine.with_category fiber Engine.Net_wait (fun () ->
                     Reliable.recv k.net fiber ~node)
               in
               Engine.with_category fiber Engine.Protocol (fun () ->
                   handle fiber node env);
               loop ()
             in
             loop ()))
    done

  (* ---------------- mount ------------------------------------------- *)

  (* The machine's fabric, with the crash lifecycle attached before the
     engine creates its reliable channel, so the channel arms
     sequencing/retransmission and sees node liveness. *)
  let fabric (ctx : ctx) =
    let fabric =
      Fabric.create ctx.eng ctx.counters ctx.fabric ~nodes:ctx.nodes
    in
    Option.iter (Fabric.attach_lifecycle fabric) ctx.lifecycle;
    fabric

  (* What a page-DSM engine's system provides beyond its kit. *)
  module type SYSTEM = sig
    type t

    val start : t -> unit
    val read_guard : t -> fiber -> node:int -> int -> unit
    val write_guard : t -> fiber -> node:int -> int -> unit

    val read_range_guard :
      t -> fiber -> node:int -> int -> int -> f:(int -> int -> unit) -> unit

    val write_range_guard :
      t -> fiber -> node:int -> int -> int -> f:(int -> int -> unit) -> unit

    val acquire : t -> fiber -> node:int -> lock:int -> unit
    val release : t -> fiber -> node:int -> lock:int -> unit
    val barrier_arrive : t -> fiber -> node:int -> id:int -> unit
    val check_invariants : t -> unit
  end

  let instance (type s) (module S : SYSTEM with type t = s) (sys : s) k
      ~i_name ?(wordwise_ranges = false) () =
    {
      i_name;
      wordwise_ranges;
      access_rights = Some (rights k);
      set_page_hook = (fun h -> k.page_hook <- h);
      start = (fun () -> S.start sys);
      retx_note = (fun () -> Reliable.pending_note k.net);
      read_guard = S.read_guard sys;
      write_guard = S.write_guard sys;
      read_range_guard = S.read_range_guard sys;
      write_range_guard = S.write_range_guard sys;
      acquire = S.acquire sys;
      release = S.release sys;
      barrier_arrive = S.barrier_arrive sys;
      rmw = None;
      invalidate_range = None;
      check_invariants = (fun () -> S.check_invariants sys);
    }
end

(* ------------------------------------------------------------------ *)
(* Registry: a pure value, so the engine table carries no hidden
   mutable state and duplicate registration is an error, not a silent
   shadowing. *)

module Registry = struct
  type t = (module ENGINE) list (* registration order, names unique *)

  let empty : t = []

  let name_of (module E : ENGINE) = E.name

  let register t (module E : ENGINE) =
    match List.find_opt (fun e -> name_of e = E.name) t with
    | Some (module Old : ENGINE) ->
        invalid_arg
          (Printf.sprintf
             "Shm_proto.Registry.register: protocol name %S is already taken \
              (%s engine: %s); engine names must be unique"
             E.name (kind_name Old.kind) Old.describe)
    | None -> t @ [ (module E : ENGINE) ]

  let of_list engines = List.fold_left register empty engines
  let names t = List.map name_of t
  let find t name = List.find_opt (fun e -> name_of e = name) t
  let mem t name = List.exists (fun e -> name_of e = name) t
end
