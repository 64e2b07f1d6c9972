module Parmacs = Shm_parmacs.Parmacs
module Memory = Shm_memsys.Memory

type kind = Migratory | Producer_consumer | False_sharing | Read_mostly

let kind_name = function
  | Migratory -> "migratory"
  | Producer_consumer -> "producer-consumer"
  | False_sharing -> "false-sharing"
  | Read_mostly -> "read-mostly"

let all_kinds = [ Migratory; Producer_consumer; False_sharing; Read_mostly ]

type params = {
  kind : kind;
  rounds : int;
  words : int;
  compute : int;
  slots : int;
}

let default_params kind =
  let rounds = match kind with Migratory -> 32 | _ -> 16 in
  (* Enough computation per round that an efficient protocol can win;
     migratory is inherently serial, so its "speedup" measures pure
     record-transfer overhead (1.0 = free migration). *)
  { kind; rounds; words = 256; compute = 500_000; slots = 64 }

let page_words = 512

type layout = { data : int; partials : int; checksum : int; words : int }

let layout_of (p : params) =
  let l = Layout.create () in
  (* +1 word for the migratory turn counter. *)
  let data =
    Layout.alloc_aligned l (max (p.words + 1) page_words) ~align:page_words
  in
  let partials = Layout.alloc_aligned l (p.slots * page_words) ~align:page_words in
  let checksum = Layout.alloc l 1 in
  { data; partials; checksum; words = Layout.size l }

let init (p : params) lay mem =
  for k = 0 to p.words - 1 do
    Memory.set_int mem (lay.data + k) k
  done

(* One record migrating under lock 0 in strict round order: the record's
   own counter (its last word) says whose turn it is, so every platform
   visits in the same sequence and the digest is deterministic. *)
let migratory (p : params) lay (ctx : Parmacs.ctx) =
  let counter = lay.data + p.words in
  let mine = ref 0 in
  for round = 0 to p.rounds - 1 do
    if round mod ctx.nprocs = ctx.id then begin
      let done_ = ref false in
      while not !done_ do
        ctx.lock 0;
        if Parmacs.read_i ctx counter = round then begin
          for k = 0 to p.words - 1 do
            let v = Parmacs.read_i ctx (lay.data + k) in
            Parmacs.write_i ctx (lay.data + k) (v + 1);
            mine := !mine + v
          done;
          ctx.compute p.compute;
          Parmacs.write_i ctx counter (round + 1);
          done_ := true
        end;
        ctx.unlock 0;
        if not !done_ then ctx.compute 20_000
      done
    end
  done;
  !mine

(* Processor 0 produces, everyone consumes, fenced by barriers. *)
let producer_consumer (p : params) lay (ctx : Parmacs.ctx) =
  let sum = ref 0 in
  for round = 1 to p.rounds do
    if ctx.id = 0 then
      for k = 0 to p.words - 1 do
        Parmacs.write_i ctx (lay.data + k) ((round * 1000) + k)
      done;
    ctx.compute p.compute;
    ctx.barrier 0;
    for k = 0 to p.words - 1 do
      sum := !sum + Parmacs.read_i ctx (lay.data + k)
    done;
    ctx.barrier 0
  done;
  !sum

(* Everyone updates a private word that shares a page with the others. *)
let false_sharing (p : params) lay (ctx : Parmacs.ctx) =
  (* One 8-word (64-byte) slot per processor: distinct cache lines, same
     page. *)
  let my_word = lay.data + (ctx.id * 8) in
  for round = 1 to p.rounds do
    let v = Parmacs.read_i ctx my_word in
    Parmacs.write_i ctx my_word (v + round);
    ctx.compute p.compute;
    ctx.barrier 0
  done;
  Parmacs.read_i ctx my_word

(* A table written once, then read by all processors every round. *)
let read_mostly (p : params) lay (ctx : Parmacs.ctx) =
  if ctx.id = 0 then
    for k = 0 to p.words - 1 do
      Parmacs.write_i ctx (lay.data + k) (7 * k)
    done;
  ctx.barrier 0;
  let sum = ref 0 in
  for round = 1 to p.rounds do
    let stride = 1 + (round mod 3) in
    let k = ref 0 in
    while !k < p.words do
      sum := !sum + Parmacs.read_i ctx (lay.data + !k);
      k := !k + stride
    done;
    ctx.compute p.compute;
    ctx.barrier 0
  done;
  !sum

let work (p : params) lay (ctx : Parmacs.ctx) =
  let digest =
    match p.kind with
    | Migratory -> migratory p lay ctx
    | Producer_consumer -> producer_consumer p lay ctx
    | False_sharing -> false_sharing p lay ctx
    | Read_mostly -> read_mostly p lay ctx
  in
  Parmacs.write_i ctx (lay.partials + (ctx.id * page_words)) digest;
  ctx.barrier 1;
  if ctx.id = 0 then begin
    let total = ref 0 in
    for q = 0 to ctx.nprocs - 1 do
      total := !total + Parmacs.read_i ctx (lay.partials + (q * page_words))
    done;
    Parmacs.write_f ctx lay.checksum (float_of_int !total)
  end;
  ctx.barrier 1

let make p =
  let lay = layout_of p in
  {
    Parmacs.name = Printf.sprintf "pattern-%s" (kind_name p.kind);
    shared_words = lay.words;
    eager_lock_hints = [];
    init = init p lay;
    work = work p lay;
    checksum_addr = lay.checksum;
    stats = Parmacs.no_stats;
    max_procs = p.slots;
  }
