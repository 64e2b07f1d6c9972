module Engine = Shm_sim.Engine
module Msg = Shm_net.Msg
module Memory = Shm_memsys.Memory
module Hw_sync = Shm_memsys.Hw_sync
module Counters = Shm_stats.Counters
module K = Shm_proto.Node_kit
module Iset = Set.Make (Int)

type page_access = Invalid | Read | Write

let access_name = function
  | Invalid -> "Invalid"
  | Read -> "Read"
  | Write -> "Write"

type pending_txn = { kind : page_access; requester : int; req : int }

exception Proto_error = K.Proto_error

(* Manager-side record for a page it manages. *)
type mpage = {
  mutable owner : int;
  mutable copyset : Iset.t;
  mutable busy : bool;
  mutable acks_waited : int;
  mutable current : pending_txn option;
  waiting : pending_txn Queue.t;
}

type mlock = { mutable held : bool; lock_waiters : (int * int) Queue.t }

type recov = {
  image : Memory.t;
      (** failure-atomic checkpoint image; page-granular for IVY (whole
          pages move, so whole pages checkpoint — contrast the TreadMarks
          sub-page run-length deltas) *)
  ckpt_dirty : Bytes.t;  (** pages touched since the last checkpoint *)
}

type node = {
  id : int;
  mem : Memory.t;
  access : page_access array;
  rights : Bytes.t;
      (** the kit's software TLB for this node, mirroring [access]:
          ['\000'] Invalid, ['\001'] Read, ['\002'] Write *)
  mpages : (int, mpage) Hashtbl.t;  (** pages this node manages *)
  mlocks : (int, mlock) Hashtbl.t;  (** locks this node manages *)
  mutable recov : recov option;  (** checkpoint state; [None] = crash-free *)
}

type barrier_state = { mutable arrivals : (int * int) list }

type t = {
  k : Proto.t K.t;
  counters : Counters.t;
  page_words : int;
  n_pages : int;
  n_nodes : int;
  nodes : node array;
  barriers : barrier_state array;
  lock_home : (int, int) Hashtbl.t;
      (** re-homed lock managers; empty (fall through to the static
          [lock mod n_nodes] mapping) until a crash moves one *)
  mutable barrier_home : int;  (** current barrier manager; starts at 0 *)
}

let kit t = t.k

(* Every [access] transition goes through here so the TLB mirror never
   drifts.  A transition to [Write] marks the page for the next
   checkpoint: once writable, the application mutates it with no further
   protocol event. *)
let set_access nd page (a : page_access) =
  nd.access.(page) <- a;
  (match nd.recov with
  | Some rv when a = Write -> Bytes.unsafe_set rv.ckpt_dirty page '\001'
  | Some _ | None -> ());
  Bytes.unsafe_set nd.rights page
    (match a with Invalid -> '\000' | Read -> '\001' | Write -> '\002')

let memory t ~node = t.nodes.(node).mem

let manager_of t page = page mod t.n_nodes

(* The page directory is deliberately NOT re-homed on a crash: requests
   to a down manager stall in the senders' retransmit queues until it
   restarts (a documented deviation — see DESIGN.md §13).  Locks and the
   barrier do re-home, through the overrides below. *)
let lock_manager_of t lock =
  match Hashtbl.find_opt t.lock_home lock with
  | Some home -> home
  | None -> lock mod t.n_nodes

let overhead t = K.overhead t.k

let create ?lifecycle eng counters fabric ~page_words ~shared_words ~memories =
  let n_nodes = Array.length memories in
  let n_pages = (shared_words + page_words - 1) / page_words in
  let k =
    K.create ?lifecycle eng counters fabric ~class_of:Proto.class_
      ~size_of:Proto.sizes ~nodes:n_nodes ~page_words ~shared_words
      ~rights:'\001'
  in
  let mk_node id =
    let mpages = Hashtbl.create 64 in
    for p = 0 to n_pages - 1 do
      if p mod n_nodes = id then
        Hashtbl.add mpages p
          {
            owner = id;
            copyset = Iset.of_list (List.init n_nodes Fun.id);
            busy = false;
            acks_waited = 0;
            current = None;
            waiting = Queue.create ();
          }
    done;
    {
      id;
      mem = memories.(id);
      access = Array.make n_pages Read;
      rights = K.rights k ~node:id;
      mpages;
      mlocks = Hashtbl.create 16;
      recov = None;
    }
  in
  (* The initial owner (the manager) holds each page in Read like everyone
     else; ownership only matters once someone writes. *)
  let t =
    {
      k;
      counters;
      page_words;
      n_pages;
      n_nodes;
      nodes = Array.init n_nodes mk_node;
      barriers = Array.init Hw_sync.max_barriers (fun _ -> { arrivals = [] });
      lock_home = Hashtbl.create 8;
      barrier_home = 0;
    }
  in
  if lifecycle <> None then begin
    let words = n_pages * page_words in
    Array.iter
      (fun nd ->
        let image = Memory.create ~words in
        Memory.blit ~src:nd.mem ~src_pos:0 ~dst:image ~dst_pos:0 ~len:words;
        nd.recov <- Some { image; ckpt_dirty = Bytes.make n_pages '\000' })
      t.nodes
  end;
  t

let page_data t nd page =
  Array.init t.page_words (fun k ->
      Memory.get nd.mem ((page * t.page_words) + k))

let install_page t fiber nd page data =
  Array.iteri
    (fun k v -> Memory.set nd.mem ((page * t.page_words) + k) v)
    data;
  (match nd.recov with
  | Some rv -> Bytes.unsafe_set rv.ckpt_dirty page '\001'
  | None -> ());
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
  match txn.kind with
  | Read ->
      deliver t fiber ~src:mgr.id ~dst:mp.owner
        (Proto.Read_fwd { page; requester = txn.requester; req = txn.req })
  | Write ->
      let invals =
        Iset.remove txn.requester (Iset.remove mp.owner mp.copyset)
      in
      mp.acks_waited <- Iset.cardinal invals;
      Counters.add t.counters "ivy.invalidations" mp.acks_waited;
      if mp.acks_waited = 0 then mgr_proceed_write t fiber mgr page
      else
        Iset.iter
          (fun dst ->
            deliver t fiber ~src:mgr.id ~dst
              (Proto.Invalidate { page; req = txn.req }))
          invals
  | Invalid ->
      (* A transaction can only be created by a Read_req or Write_req; an
         Invalid kind reaching the manager means a corrupted request (e.g.
         a protocol bug surfaced by a chaos schedule).  Raise a diagnosable
         error instead of Assert_failure. *)
      raise
        (Proto_error
           {
             page;
             requester = txn.requester;
             manager = mgr.id;
             state =
               Printf.sprintf
                 "ivy: transaction kind %s (req %d); manager state: owner=%d \
                  copyset={%s} busy=%b acks_waited=%d queued=%d"
                 (access_name txn.kind) txn.req mp.owner
                 (String.concat ","
                    (List.map string_of_int (Iset.elements mp.copyset)))
                 mp.busy mp.acks_waited
                 (Queue.length mp.waiting);
           })

and mgr_proceed_write t fiber mgr page =
  let mp = Hashtbl.find mgr.mpages page in
  match mp.current with
  | Some { requester; req; _ } ->
      if mp.owner = requester then
        (* Ownership upgrade: the requester already holds the data. *)
        deliver t fiber ~src:mgr.id ~dst:requester
          (Proto.Page_grant { page; req; data = None })
      else
        deliver t fiber ~src:mgr.id ~dst:mp.owner
          (Proto.Write_fwd { page; requester; req })
  | None -> failwith "ivy: write proceed without transaction"

and mgr_request t fiber mgr page txn =
  let mp = Hashtbl.find mgr.mpages page in
  if mp.busy then Queue.push txn mp.waiting
  else mgr_start_txn t fiber mgr page txn

and mgr_txn_done t fiber mgr page ~requester ~write =
  let mp = Hashtbl.find mgr.mpages page in
  if write then begin
    mp.owner <- requester;
    mp.copyset <- Iset.singleton requester
  end
  else mp.copyset <- Iset.add requester mp.copyset;
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
        let ml = { held = false; lock_waiters = Queue.create () } in
        Hashtbl.add mgr.mlocks lock ml;
        ml
  in
  if ml.held then Queue.push (requester, req) ml.lock_waiters
  else begin
    ml.held <- true;
    deliver t fiber ~src:mgr.id ~dst:requester (Proto.Lock_grant { lock; req })
  end

and mgr_unlock t fiber mgr ~lock =
  let ml = Hashtbl.find mgr.mlocks lock in
  match Queue.take_opt ml.lock_waiters with
  | Some (requester, req) ->
      deliver t fiber ~src:mgr.id ~dst:requester
        (Proto.Lock_grant { lock; req })
  | None -> ml.held <- false

(* ---------------- barrier manager ---------------------------------- *)

and mgr_barrier_arrive t fiber mgr ~id ~node ~req =
  let b = t.barriers.(id) in
  b.arrivals <- (node, req) :: b.arrivals;
  if List.length b.arrivals = t.n_nodes then begin
    let arrivals = b.arrivals in
    b.arrivals <- [];
    List.iter
      (fun (dst, dreq) ->
        deliver t fiber ~src:mgr.id ~dst
          (Proto.Barrier_depart { barrier = id; req = dreq }))
      arrivals;
    Counters.incr t.counters "ivy.barriers"
  end

(* ---------------- message dispatch --------------------------------- *)

and dispatch t fiber nd ~src body =
  ignore src;
  match body with
  | Proto.Read_req { page; requester; req } ->
      mgr_request t fiber nd page { kind = Read; requester; req }
  | Proto.Write_req { page; requester; req } ->
      mgr_request t fiber nd page { kind = Write; requester; req }
  | Proto.Read_fwd { page; requester; req } ->
      (* We are the owner: downgrade and ship a copy. *)
      if nd.access.(page) = Write then set_access nd page Read;
      Engine.advance fiber t.page_words;
      deliver t fiber ~src:nd.id ~dst:requester
        (Proto.Page_copy { page; req; data = page_data t nd page });
      Counters.incr t.counters "ivy.page_copies"
  | Proto.Write_fwd { page; requester; req } ->
      (* We are the owner: ship the page with ownership and drop it. *)
      Engine.advance fiber t.page_words;
      let data = Some (page_data t nd page) in
      set_access nd page Invalid;
      deliver t fiber ~src:nd.id ~dst:requester
        (Proto.Page_grant { page; req; data });
      Counters.incr t.counters "ivy.page_transfers"
  | Proto.Invalidate { page; req } ->
      set_access nd page Invalid;
      Engine.instant fiber "ivy.invalidate";
      deliver t fiber ~src:nd.id ~dst:(manager_of t page)
        (Proto.Inval_ack { page; req })
  | Proto.Inval_ack { page; _ } ->
      let mp = Hashtbl.find nd.mpages page in
      mp.acks_waited <- mp.acks_waited - 1;
      if mp.acks_waited = 0 then mgr_proceed_write t fiber nd page
  | Proto.Txn_done { page; requester; write } ->
      mgr_txn_done t fiber nd page ~requester ~write:(write = 1)
  | Proto.Lock_req { lock; requester; req } as body ->
      (* Stale destination after a crash re-homed the lock (the request
         outlived the outage in a peer's retransmit queue): forward. *)
      let home = lock_manager_of t lock in
      if home <> nd.id then begin
        Counters.incr t.counters "recovery.forwards";
        deliver t fiber ~src:nd.id ~dst:home body
      end
      else mgr_lock_req t fiber nd ~lock ~requester ~req
  | Proto.Unlock { lock; requester } as body ->
      ignore requester;
      let home = lock_manager_of t lock in
      if home <> nd.id then begin
        Counters.incr t.counters "recovery.forwards";
        deliver t fiber ~src:nd.id ~dst:home body
      end
      else mgr_unlock t fiber nd ~lock
  | Proto.Barrier_arrive { barrier; node; req } as body ->
      if t.barrier_home <> nd.id then begin
        Counters.incr t.counters "recovery.forwards";
        deliver t fiber ~src:nd.id ~dst:t.barrier_home body
      end
      else mgr_barrier_arrive t fiber nd ~id:barrier ~node ~req
  | Proto.Page_copy { req; _ } | Proto.Page_grant { req; _ }
  | Proto.Lock_grant { req; _ } | Proto.Barrier_depart { req; _ } ->
      K.post t.k ~node:nd.id ~req body ~at:(Engine.clock fiber)

(* ---------------- crash recovery (DESIGN.md §13) ------------------- *)

(* Page-granular failure-atomic checkpoint: whole dirty pages copy into
   the image (IVY moves whole pages, so it persists whole pages —
   contrast the TreadMarks sub-page run-length deltas).  Runs from an
   [Engine.schedule] callback; cost charged through [steal]. *)
let checkpoint t nd =
  match nd.recov with
  | None -> ()
  | Some rv ->
      let pw = t.page_words in
      let bytes = ref 0 and copied = ref 0 in
      (* Probe before persisting: a writable page stays ckpt-dirty
         between sweeps by design, but re-persisting it when nothing
         changed would make every sweep cost the whole working set —
         the per-sweep charge outruns the checkpoint interval on large
         runs and the simulation quasi-livelocks.  The probe itself
         rides the page-table write bits, so only pages that actually
         changed are copied and charged.  Accounting stays whole-page:
         IVY's protocol (and hence persistence) unit is the page. *)
      for p = 0 to t.n_pages - 1 do
        if Bytes.get rv.ckpt_dirty p <> '\000' then begin
          if not (Memory.equal_range nd.mem rv.image ~pos:(p * pw) ~len:pw)
          then begin
            Memory.blit ~src:nd.mem ~src_pos:(p * pw) ~dst:rv.image
              ~dst_pos:(p * pw) ~len:pw;
            bytes := !bytes + 16 + (8 * pw);
            copied := !copied + pw
          end;
          (* A writable page keeps changing with no further protocol
             event: keep it dirty for the next checkpoint. *)
          if nd.access.(p) <> Write then Bytes.set rv.ckpt_dirty p '\000'
        end
      done;
      K.charge t.k nd.id ((overhead t).handler + !copied);
      Counters.incr t.counters "ckpt.count";
      Counters.add t.counters "ckpt.bytes" !bytes

(* Online rejoin of a restarted node: every page it neither owns nor has
   a transaction in flight for is conservatively invalidated, so the
   next access re-fetches a fresh copy through the (sequentially
   consistent) manager.  Owned pages are authoritative — the volatile
   copy survives the outage under the failure-atomic heap model — and
   invalidating them would strand the directory. *)
let rejoin t nd =
  match nd.recov with
  | None -> ()
  | Some _ ->
      for p = 0 to t.n_pages - 1 do
        if nd.access.(p) <> Invalid && not (K.fetching t.k ~node:nd.id p)
        then begin
          let mp = Hashtbl.find t.nodes.(manager_of t p).mpages p in
          let ours =
            mp.owner = nd.id
            || mp.busy
               &&
               match mp.current with
               | Some { requester; _ } -> requester = nd.id
               | None -> false
          in
          if not ours then begin
            set_access nd p Invalid;
            K.page_changed t.k ~node:nd.id ~page:p;
            Counters.incr t.counters "recovery.invalidated"
          end
        end
      done;
      let cycles = (overhead t).handler + t.n_pages in
      K.charge t.k nd.id cycles;
      Counters.incr t.counters "recovery.count";
      Counters.add t.counters "recovery.cycles" cycles

(* Re-home the lock and barrier managers of a crashed node onto the next
   surviving node.  The [mlock] records are shared (replicated manager
   state), so holders and queued waiters survive the move; requests that
   still name the dead node are forwarded by its handler after restart.
   The page directory is NOT re-homed — see [lock_manager_of]. *)
let rehome t ~dead s =
  let moved = ref 0 in
  Hashtbl.iter
    (fun lock ml ->
      if lock_manager_of t lock = dead then begin
        Hashtbl.replace t.lock_home lock s;
        Hashtbl.replace t.nodes.(s).mlocks lock ml;
        incr moved
      end)
    t.nodes.(dead).mlocks;
  if t.barrier_home = dead then begin
    (* Arrival state lives in [t.barriers], visible to the successor;
       only the role moves. *)
    t.barrier_home <- s;
    incr moved
  end;
  if !moved > 0 then Counters.add t.counters "recovery.rehomes" !moved

let start t =
  let ov = overhead t in
  K.start t.k ~name:"ivy"
    ~recovery:
      {
        K.ckpt = (fun node -> checkpoint t t.nodes.(node));
        rehome = rehome t;
        rejoin = (fun node -> rejoin t t.nodes.(node));
      }
    (fun fiber node env ->
      Engine.advance fiber ov.handler;
      (* CPU time spent serving: charged back to the application unless
         the message completes one of its own waits. *)
      (match env.Msg.body with
      | Proto.Page_copy _ | Proto.Page_grant _ | Proto.Lock_grant _
      | Proto.Barrier_depart _ ->
          ()
      | _ -> K.charge t.k node (ov.handler + ov.fixed_recv));
      dispatch t fiber t.nodes.(node) ~src:env.Msg.src env.Msg.body)

(* ---------------- application-facing operations -------------------- *)

let fault t fiber nd page (kind : page_access) =
  let want_write = kind = Write in
  let satisfied () =
    match nd.access.(page) with
    | Write -> true
    | Read -> not want_write
    | Invalid -> false
  in
  K.fetch t.k fiber ~node:nd.id page ~ready:satisfied @@ fun () ->
  Counters.incr t.counters
    (if want_write then "ivy.write_faults" else "ivy.read_faults");
  Engine.instant fiber "ivy.fault";
  Engine.advance fiber (overhead t).handler;
  let mgr = manager_of t page in
  K.call t.k fiber ~node:nd.id Engine.Net_wait
    (fun req ->
      deliver t fiber ~src:nd.id ~dst:mgr
        (if want_write then Proto.Write_req { page; requester = nd.id; req }
         else Proto.Read_req { page; requester = nd.id; req }))
    (function
    | Proto.Page_copy { data; _ } ->
        install_page t fiber nd page data;
        set_access nd page Read
    | Proto.Page_grant { data; _ } ->
        Option.iter (install_page t fiber nd page) data;
        set_access nd page Write
    | _ -> failwith "ivy: unexpected fault response");
  deliver t fiber ~src:nd.id ~dst:mgr
    (Proto.Txn_done
       { page; requester = nd.id; write = (if want_write then 1 else 0) })

let read_page t fiber nd page =
  while nd.access.(page) = Invalid do
    fault t fiber nd page Read
  done

let write_page t fiber nd page =
  while nd.access.(page) <> Write do
    fault t fiber nd page Write
  done

(* A single process never write-protects pages. *)
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
  K.enter t.k fiber node;
  Engine.with_category fiber Engine.Protocol @@ fun () ->
  K.call t.k fiber ~node Engine.Lock_wait
    (fun req ->
      deliver t fiber ~src:node ~dst:(lock_manager_of t lock)
        (Proto.Lock_req { lock; requester = node; req }))
    (function
    | Proto.Lock_grant _ -> ()
    | _ -> failwith "ivy: unexpected lock response");
  Counters.incr t.counters "ivy.lock_acquires"

let release t fiber ~node ~lock =
  K.check_lock lock;
  K.enter t.k fiber node;
  Engine.with_category fiber Engine.Protocol (fun () ->
      deliver t fiber ~src:node ~dst:(lock_manager_of t lock)
        (Proto.Unlock { lock; requester = node }))

let barrier_arrive t fiber ~node ~id =
  K.check_barrier id;
  K.enter t.k fiber node;
  Engine.with_category fiber Engine.Protocol @@ fun () ->
  K.call t.k fiber ~node Engine.Barrier_wait
    (fun req ->
      deliver t fiber ~src:node ~dst:t.barrier_home
        (Proto.Barrier_arrive { barrier = id; node; req }))
    (function
    | Proto.Barrier_depart _ -> ()
    | _ -> failwith "ivy: unexpected barrier response")

let check_invariants t =
  for page = 0 to t.n_pages - 1 do
    let mgr = t.nodes.(manager_of t page) in
    let mp = Hashtbl.find mgr.mpages page in
    (* Owner must hold a valid copy (unless a transaction is in flight). *)
    if not mp.busy then begin
      if t.nodes.(mp.owner).access.(page) = Invalid then
        failwith
          (Printf.sprintf "ivy: page %d owner %d has no copy" page mp.owner);
      Array.iter
        (fun nd ->
          match nd.access.(page) with
          | Invalid -> ()
          | Read ->
              if not (Iset.mem nd.id mp.copyset) then
                failwith
                  (Printf.sprintf "ivy: page %d copy at %d not in copyset"
                     page nd.id)
          | Write ->
              if nd.id <> mp.owner then
                failwith
                  (Printf.sprintf "ivy: page %d writer %d is not owner %d"
                     page nd.id mp.owner))
        t.nodes
    end
  done
