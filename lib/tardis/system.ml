module Engine = Shm_sim.Engine
module Msg = Shm_net.Msg
module Memory = Shm_memsys.Memory
module Hw_sync = Shm_memsys.Hw_sync
module Counters = Shm_stats.Counters
module K = Shm_proto.Node_kit

(* Tardis (Yu & Devadas, arXiv 1501.04504) over a page DSM: coherence by
   logical timestamps instead of invalidation.

   Every page version carries a write timestamp [wts]; read copies carry
   a lease — a logical time up to which the copy may be read.  Each node
   keeps a program timestamp [pts] that only moves forward: loads bump it
   to the version's [wts], exclusive grants to the new version's
   timestamp, and synchronization (lock grants, barrier departures)
   jumps it to the partner's timestamp.  A copy is readable exactly while
   [pts <= lease]; when the lease has expired the node asks the page's
   home manager to renew it — a two-word message, no data unless the
   version moved on.  Writes take exclusive ownership at a fresh
   timestamp [max (rts + 1) pts], above every outstanding lease, so
   nothing is ever broadcast or invalidated: stale sharers simply run out
   of lease before their timestamps reach the new version.

   The home manager (static, [page mod n_nodes]) tracks the version
   timestamp [wts], the highest lease handed out [rts] and the exclusive
   owner, and serializes transactions per page exactly like the IVY
   manager (busy flag + queue).  All messaging goes through
   {!Shm_net.Reliable}, so the engine runs under fault injection; every
   protocol decision depends only on logical timestamps carried in
   messages, never on arrival times. *)

type page_access = Tinvalid | Tshared | Texclusive

let access_name = function
  | Tinvalid -> "Invalid"
  | Tshared -> "Shared"
  | Texclusive -> "Exclusive"

(* A renewed lease runs this far past the reader's [pts].  Longer leases
   mean fewer renewals but later timestamps for writers (writes start at
   [rts + 1]); the value is a protocol constant, not machine timing. *)
let lease_span = 10

type pending_txn = {
  write : bool;
  requester : int;
  req : int;
  pts : int;
  have_wts : int;
}

(* Manager-side record for a page it is home for. *)
type mpage = {
  mutable owner : int option;
  mutable m_wts : int;  (** timestamp of the current version *)
  mutable m_rts : int;  (** highest lease handed out; >= m_wts *)
  mutable busy : bool;
  mutable current : pending_txn option;
  waiting : pending_txn Queue.t;
}

type mlock = {
  mutable held : bool;
  mutable lts : int;  (** timestamp of the last release *)
  lock_waiters : (int * int) Queue.t;
}

type node = {
  id : int;
  mem : Memory.t;
  access : page_access array;
  rights : Bytes.t;
      (** the kit's software TLB: ['\002'] for Exclusive (guards skippable),
          ['\000'] otherwise — a Shared copy's readability depends on
          [pts <= lease], which changes at synchronization, so Shared
          reads must always reach the guard (a hit is free there). *)
  wts : int array;  (** version timestamp of the local copy, per page *)
  lease : int array;  (** local copy readable while [pts <= lease] *)
  mutable pts : int;  (** the node's program timestamp *)
  mpages : (int, mpage) Hashtbl.t;  (** pages this node is home for *)
  mlocks : (int, mlock) Hashtbl.t;  (** locks this node manages *)
}

type barrier_state = {
  mutable arrivals : (int * int) list;
  mutable high : int;  (** max pts over arrivals so far *)
}

type t = {
  k : Proto.t K.t;
  counters : Counters.t;
  page_words : int;
  n_pages : int;
  n_nodes : int;
  nodes : node array;
  barriers : barrier_state array;
}

let kit t = t.k

(* Every [access] transition goes through here so the TLB mirror never
   drifts. *)
let set_access nd page (a : page_access) =
  nd.access.(page) <- a;
  Bytes.unsafe_set nd.rights page
    (match a with Texclusive -> '\002' | Tshared | Tinvalid -> '\000')

let memory t ~node = t.nodes.(node).mem

let manager_of t page = page mod t.n_nodes

let lock_manager_of t lock = lock mod t.n_nodes

let overhead t = K.overhead t.k

let create eng counters fabric ~page_words ~shared_words ~memories =
  let n_nodes = Array.length memories in
  let n_pages = (shared_words + page_words - 1) / page_words in
  let k =
    K.create eng counters fabric ~class_of:Proto.class_ ~size_of:Proto.sizes
      ~nodes:n_nodes ~page_words ~shared_words ~rights:'\000'
  in
  let mk_node id =
    let mpages = Hashtbl.create 64 in
    for p = 0 to n_pages - 1 do
      if p mod n_nodes = id then
        Hashtbl.add mpages p
          {
            owner = None;
            m_wts = 0;
            m_rts = 0;
            busy = false;
            current = None;
            waiting = Queue.create ();
          }
    done;
    {
      id;
      mem = memories.(id);
      access = Array.make n_pages Tshared;
      (* pts starts at 0 and every initial copy is version 0 with a
         lease of 0, so the warm start costs nothing: first reads hit,
         the first write of a page mints version >= 1. *)
      rights = K.rights k ~node:id;
      wts = Array.make n_pages 0;
      lease = Array.make n_pages 0;
      pts = 0;
      mpages;
      mlocks = Hashtbl.create 16;
    }
  in
  {
    k;
    counters;
    page_words;
    n_pages;
    n_nodes;
    nodes = Array.init n_nodes mk_node;
    barriers =
      Array.init Hw_sync.max_barriers (fun _ -> { arrivals = []; high = 0 });
  }

let page_data t nd page =
  Array.init t.page_words (fun k ->
      Memory.get nd.mem ((page * t.page_words) + k))

(* Replace a page's contents with version [wts].  The local access kind
   is the caller's business; the version stamp is not, so it updates
   here and the platform's cache hook always fires. *)
let install_page t fiber nd page ~wts data =
  Array.iteri
    (fun k v -> Memory.set nd.mem ((page * t.page_words) + k) v)
    data;
  nd.wts.(page) <- wts;
  Engine.advance fiber t.page_words;
  K.page_changed t.k ~node:nd.id ~page

(* Deliver [body] to [dst]: over the fabric, or by running the dispatch
   inline when [dst] is the local node (no message, no cost). *)
let rec deliver t fiber ~src ~dst body =
  if src = dst then dispatch t fiber t.nodes.(dst) ~src body
  else K.send t.k fiber ~src ~dst body

(* ---------------- manager-side page state machine ------------------ *)

and mgr_start_txn t fiber mgr page (txn : pending_txn) =
  let mp = Hashtbl.find mgr.mpages page in
  mp.busy <- true;
  mp.current <- Some txn;
  match mp.owner with
  | Some o when o <> txn.requester ->
      deliver t fiber ~src:mgr.id ~dst:o
        (Proto.Flush_req { page; req = txn.req; drop = txn.write })
  | Some _ ->
      (* The exclusive holder neither read- nor write-faults on its own
         page, so a transaction from the owner is a protocol bug (or a
         corrupted request under a chaos schedule): diagnosable error. *)
      raise
        (K.Proto_error
           {
             page;
             requester = txn.requester;
             manager = mgr.id;
             state =
               Printf.sprintf
                 "tardis: %s transaction (req %d) from the exclusive owner; \
                  manager \
                  state: wts=%d rts=%d busy=%b queued=%d"
                 (if txn.write then "write" else "read")
                 txn.req mp.m_wts mp.m_rts mp.busy
                 (Queue.length mp.waiting);
           })
  | None -> mgr_grant t fiber mgr page

and mgr_grant t fiber mgr page =
  let mp = Hashtbl.find mgr.mpages page in
  match mp.current with
  | Some { write; requester; req; pts; have_wts } ->
      (* With no owner, the home copy is the current version, so grants
         are served from the manager's own memory — unless the requester
         already holds it, which makes renewals and upgrades two-word
         messages. *)
      let current = mp.m_wts in
      let fresh () =
        if have_wts = current then None
        else begin
          Engine.advance fiber t.page_words;
          Some (page_data t mgr page)
        end
      in
      if write then begin
        let ts = max (mp.m_rts + 1) pts in
        let data = fresh () in
        mp.m_wts <- ts;
        mp.m_rts <- ts;
        mp.owner <- Some requester;
        deliver t fiber ~src:mgr.id ~dst:requester
          (Proto.Write_grant { page; req; ts; data })
      end
      else begin
        let lease = max mp.m_rts (pts + lease_span) in
        let data = fresh () in
        mp.m_rts <- lease;
        deliver t fiber ~src:mgr.id ~dst:requester
          (Proto.Read_grant { page; req; wts = current; lease; data })
      end
  | None -> failwith "tardis: grant without transaction"

and mgr_request t fiber mgr page txn =
  let mp = Hashtbl.find mgr.mpages page in
  if mp.busy then Queue.push txn mp.waiting
  else mgr_start_txn t fiber mgr page txn

and mgr_txn_done t fiber mgr page =
  let mp = Hashtbl.find mgr.mpages page in
  mp.busy <- false;
  mp.current <- None;
  match Queue.take_opt mp.waiting with
  | Some txn -> mgr_start_txn t fiber mgr page txn
  | None -> ()

(* ---------------- lock manager ------------------------------------- *)

and mgr_lock_req t fiber mgr ~lock ~requester ~req =
  let ml =
    match Hashtbl.find_opt mgr.mlocks lock with
    | Some ml -> ml
    | None ->
        let ml = { held = false; lts = 0; lock_waiters = Queue.create () } in
        Hashtbl.add mgr.mlocks lock ml;
        ml
  in
  if ml.held then Queue.push (requester, req) ml.lock_waiters
  else begin
    ml.held <- true;
    deliver t fiber ~src:mgr.id ~dst:requester
      (Proto.Lock_grant { lock; req; ts = ml.lts })
  end

and mgr_unlock t fiber mgr ~lock ~pts =
  let ml = Hashtbl.find mgr.mlocks lock in
  if pts > ml.lts then ml.lts <- pts;
  match Queue.take_opt ml.lock_waiters with
  | Some (requester, req) ->
      deliver t fiber ~src:mgr.id ~dst:requester
        (Proto.Lock_grant { lock; req; ts = ml.lts })
  | None -> ml.held <- false

(* ---------------- barrier manager ---------------------------------- *)

and mgr_barrier_arrive t fiber mgr ~id ~node ~req ~pts =
  let b = t.barriers.(id) in
  b.arrivals <- (node, req) :: b.arrivals;
  if pts > b.high then b.high <- pts;
  if List.length b.arrivals = t.n_nodes then begin
    let arrivals = b.arrivals in
    let ts = b.high in
    b.arrivals <- [];
    (* Departures jump every node to the epoch's maximum timestamp, so
       leases on anything written before the barrier are already spent
       on the far side. *)
    List.iter
      (fun (dst, dreq) ->
        deliver t fiber ~src:mgr.id ~dst
          (Proto.Barrier_depart { barrier = id; req = dreq; ts }))
      arrivals;
    Counters.incr t.counters "tardis.barriers"
  end

(* ---------------- message dispatch --------------------------------- *)

and dispatch t fiber nd ~src body =
  ignore src;
  match body with
  | Proto.Read_req { page; requester; req; pts; have_wts } ->
      mgr_request t fiber nd page
        { write = false; requester; req; pts; have_wts }
  | Proto.Write_req { page; requester; req; pts; have_wts } ->
      mgr_request t fiber nd page
        { write = true; requester; req; pts; have_wts }
  | Proto.Flush_req { page; req; drop } ->
      (* We are the owner: ship the latest contents back to the home
         manager and give up exclusivity.  The copy we keep (unless
         dropped) is the current version, already stamped [wts]. *)
      if nd.access.(page) <> Texclusive then
        raise
          (K.Proto_error
             {
               page;
               requester = nd.id;
               manager = manager_of t page;
               state =
                 Printf.sprintf "tardis: flush of a %s copy (req %d)"
                   (access_name nd.access.(page))
                   req;
             });
      set_access nd page (if drop then Tinvalid else Tshared);
      Engine.advance fiber t.page_words;
      deliver t fiber ~src:nd.id ~dst:(manager_of t page)
        (Proto.Flush_resp { page; req; data = page_data t nd page });
      Counters.incr t.counters "tardis.flushes"
  | Proto.Flush_resp { page; data; _ } ->
      (* We are the manager: refresh the home copy and serve the waiting
         transaction from it. *)
      let mp = Hashtbl.find nd.mpages page in
      install_page t fiber nd page ~wts:mp.m_wts data;
      mp.owner <- None;
      mgr_grant t fiber nd page
  | Proto.Txn_done { page; _ } -> mgr_txn_done t fiber nd page
  | Proto.Lock_req { lock; requester; req } ->
      mgr_lock_req t fiber nd ~lock ~requester ~req
  | Proto.Unlock { lock; requester; pts } ->
      ignore requester;
      mgr_unlock t fiber nd ~lock ~pts
  | Proto.Barrier_arrive { barrier; node; req; pts } ->
      mgr_barrier_arrive t fiber nd ~id:barrier ~node ~req ~pts
  | Proto.Read_grant { req; _ } | Proto.Write_grant { req; _ }
  | Proto.Lock_grant { req; _ } | Proto.Barrier_depart { req; _ } ->
      K.post t.k ~node:nd.id ~req body ~at:(Engine.clock fiber)

let start t =
  let ov = overhead t in
  K.start t.k ~name:"tardis" (fun fiber node env ->
      Engine.advance fiber ov.handler;
      (* CPU time spent serving: charged back to the application unless
         the message completes one of its own waits. *)
      (match env.Msg.body with
      | Proto.Read_grant _ | Proto.Write_grant _ | Proto.Lock_grant _
      | Proto.Barrier_depart _ ->
          ()
      | _ -> K.charge t.k node (ov.handler + ov.fixed_recv));
      dispatch t fiber t.nodes.(node) ~src:env.Msg.src env.Msg.body)

(* ---------------- application-facing operations -------------------- *)

let fault t fiber nd page ~write =
  let satisfied () =
    match nd.access.(page) with
    | Texclusive -> true
    | Tshared -> (not write) && nd.pts <= nd.lease.(page)
    | Tinvalid -> false
  in
  K.fetch t.k fiber ~node:nd.id page ~ready:satisfied @@ fun () ->
  Counters.incr t.counters
    (if write then "tardis.write_faults" else "tardis.read_faults");
  Engine.instant fiber "tardis.fault";
  Engine.advance fiber (overhead t).handler;
  let mgr = manager_of t page in
  let have_wts = if nd.access.(page) = Tinvalid then -1 else nd.wts.(page) in
  K.call t.k fiber ~node:nd.id Engine.Net_wait
    (fun req ->
      let pts = nd.pts and requester = nd.id in
      deliver t fiber ~src:nd.id ~dst:mgr
        (if write then Proto.Write_req { page; requester; req; pts; have_wts }
         else Proto.Read_req { page; requester; req; pts; have_wts }))
    (function
    | Proto.Read_grant { wts; lease; data; _ } ->
        (match data with
        | Some d ->
            install_page t fiber nd page ~wts d;
            Counters.incr t.counters "tardis.page_fetches"
        | None ->
            nd.wts.(page) <- wts;
            Counters.incr t.counters "tardis.renewals");
        set_access nd page Tshared;
        nd.lease.(page) <- lease;
        (* Load rule: reading version [wts] moves logical time to it. *)
        if wts > nd.pts then nd.pts <- wts
    | Proto.Write_grant { ts; data; _ } ->
        (match data with
        | Some d ->
            install_page t fiber nd page ~wts:ts d;
            Counters.incr t.counters "tardis.page_fetches"
        | None ->
            nd.wts.(page) <- ts;
            Counters.incr t.counters "tardis.upgrades");
        set_access nd page Texclusive;
        nd.lease.(page) <- ts;
        if ts > nd.pts then nd.pts <- ts
    | _ -> failwith "tardis: unexpected fault response");
  deliver t fiber ~src:nd.id ~dst:mgr
    (Proto.Txn_done { page; requester = nd.id })

(* A Shared hit still executes the load rule: the version's [wts] drags
   [pts] forward (a free register update — the guard was reached anyway
   because Shared pages keep rights '\000'). *)
let[@inline] note_read nd page =
  if nd.wts.(page) > nd.pts then nd.pts <- nd.wts.(page)

let readable nd page =
  match nd.access.(page) with
  | Texclusive -> true
  | Tshared -> nd.pts <= nd.lease.(page)
  | Tinvalid -> false

let read_page t fiber nd page =
  while not (readable nd page) do
    fault t fiber nd page ~write:false
  done;
  note_read nd page

let write_page t fiber nd page =
  while nd.access.(page) <> Texclusive do
    fault t fiber nd page ~write:true
  done

let read_guard t fiber ~node addr =
  if t.n_nodes > 1 then read_page t fiber t.nodes.(node) (K.page_of t.k addr)

let write_guard t fiber ~node addr =
  if t.n_nodes > 1 then write_page t fiber t.nodes.(node) (K.page_of t.k addr)

let read_range_guard t fiber ~node addr words ~f =
  if t.n_nodes = 1 then f addr words
  else K.walk t.k addr words ~f ~guard:(read_page t fiber t.nodes.(node))

let write_range_guard t fiber ~node addr words ~f =
  if t.n_nodes = 1 then f addr words
  else K.walk t.k addr words ~f ~guard:(write_page t fiber t.nodes.(node))

let acquire t fiber ~node ~lock =
  K.check_lock lock;
  let nd = t.nodes.(node) in
  K.enter t.k fiber node;
  Engine.with_category fiber Engine.Protocol @@ fun () ->
  K.call t.k fiber ~node Engine.Lock_wait
    (fun req ->
      deliver t fiber ~src:node ~dst:(lock_manager_of t lock)
        (Proto.Lock_req { lock; requester = node; req }))
    (function
    | Proto.Lock_grant { ts; _ } ->
        (* Synchronize logical time with the previous holder, so leases on
           everything it wrote are expired from here on. *)
        if ts > nd.pts then nd.pts <- ts
    | _ -> failwith "tardis: unexpected lock response");
  Counters.incr t.counters "tardis.lock_acquires"

let release t fiber ~node ~lock =
  K.check_lock lock;
  let nd = t.nodes.(node) in
  K.enter t.k fiber node;
  Engine.with_category fiber Engine.Protocol (fun () ->
      deliver t fiber ~src:node ~dst:(lock_manager_of t lock)
        (Proto.Unlock { lock; requester = node; pts = nd.pts }))

let barrier_arrive t fiber ~node ~id =
  K.check_barrier id;
  let nd = t.nodes.(node) in
  K.enter t.k fiber node;
  Engine.with_category fiber Engine.Protocol @@ fun () ->
  K.call t.k fiber ~node Engine.Barrier_wait
    (fun req ->
      deliver t fiber ~src:node ~dst:0
        (Proto.Barrier_arrive { barrier = id; node; req; pts = nd.pts }))
    (function
    | Proto.Barrier_depart { ts; _ } -> if ts > nd.pts then nd.pts <- ts
    | _ -> failwith "tardis: unexpected barrier response")

let check_invariants t =
  for page = 0 to t.n_pages - 1 do
    let mgr = t.nodes.(manager_of t page) in
    let mp = Hashtbl.find mgr.mpages page in
    if mp.busy then
      failwith (Printf.sprintf "tardis: page %d transaction never drained" page);
    if mp.m_rts < mp.m_wts then
      failwith
        (Printf.sprintf "tardis: page %d rts %d below wts %d" page mp.m_rts
           mp.m_wts);
    Array.iter
      (fun nd ->
        (match nd.access.(page) with
        | Texclusive ->
            if mp.owner <> Some nd.id then
              failwith
                (Printf.sprintf "tardis: page %d exclusive at %d, owner %s"
                   page nd.id
                   (match mp.owner with
                   | Some o -> string_of_int o
                   | None -> "none"))
        | Tshared | Tinvalid ->
            if mp.owner = Some nd.id then
              failwith
                (Printf.sprintf "tardis: page %d owner %d holds a %s copy"
                   page nd.id
                   (access_name nd.access.(page))));
        if nd.wts.(page) > mp.m_wts then
          failwith
            (Printf.sprintf "tardis: page %d copy at %d newer than home" page
               nd.id);
        if nd.lease.(page) > mp.m_rts then
          failwith
            (Printf.sprintf "tardis: page %d lease at %d beyond home rts" page
               nd.id))
      t.nodes
  done
