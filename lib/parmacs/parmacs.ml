module Memory = Shm_memsys.Memory

type range_ops = {
  read_fs : int -> float array -> int -> int -> unit;
  write_fs : int -> float array -> int -> int -> unit;
  read_is : int -> int array -> int -> int -> unit;
  write_is : int -> int array -> int -> int -> unit;
}

type ctx = {
  id : int;
  nprocs : int;
  read : int -> int64;
  write : int -> int64 -> unit;
  fcell : float ref;
  readf : int -> unit;
  writef : int -> unit;
  icell : int ref;
  readi : int -> unit;
  writei : int -> unit;
  range : range_ops;
  lock : int -> unit;
  unlock : int -> unit;
  barrier : int -> unit;
  compute : int -> unit;
  clock : unit -> int;
}

(* Scalar float traffic goes through [fcell] so no value is ever boxed
   across the platform closure: [readf] stores the loaded word into the
   cell, [writef] stores the cell's value.  A float ref is a flat one-
   field record, so both sides are plain unboxed double moves. *)
let[@inline] read_f ctx addr =
  ctx.readf addr;
  !(ctx.fcell)

let[@inline] write_f ctx addr v =
  ctx.fcell := v;
  ctx.writef addr

(* Scalar int traffic mirrors the float path: [icell] carries the word
   across the platform closure, so no [int64] is boxed per access. *)
let[@inline] read_i ctx addr =
  ctx.readi addr;
  !(ctx.icell)

let[@inline] write_i ctx addr v =
  ctx.icell := v;
  ctx.writei addr

let read_range_f ctx addr (dst : float array) =
  ctx.range.read_fs addr dst 0 (Array.length dst)

let write_range_f ctx addr (src : float array) =
  ctx.range.write_fs addr src 0 (Array.length src)

let read_range_i ctx addr (dst : int array) =
  ctx.range.read_is addr dst 0 (Array.length dst)

let write_range_i ctx addr (src : int array) =
  ctx.range.write_is addr src 0 (Array.length src)

let range_ops_of_runs ~mem ~read_run ~write_run =
  {
    read_fs =
      (fun addr dst pos len ->
        read_run addr len ~f:(fun p l ->
            Memory.read_floats mem p dst (pos + p - addr) l));
    write_fs =
      (fun addr src pos len ->
        write_run addr len ~f:(fun p l ->
            Memory.write_floats mem p src (pos + p - addr) l));
    read_is =
      (fun addr dst pos len ->
        read_run addr len ~f:(fun p l ->
            Memory.read_ints mem p dst (pos + p - addr) l));
    write_is =
      (fun addr src pos len ->
        write_run addr len ~f:(fun p l ->
            Memory.write_ints mem p src (pos + p - addr) l));
  }

let range_ops_wordwise ~read ~write =
  {
    read_fs =
      (fun addr dst pos len ->
        for k = 0 to len - 1 do
          dst.(pos + k) <- Int64.float_of_bits (read (addr + k))
        done);
    write_fs =
      (fun addr src pos len ->
        for k = 0 to len - 1 do
          write (addr + k) (Int64.bits_of_float src.(pos + k))
        done);
    read_is =
      (fun addr dst pos len ->
        for k = 0 to len - 1 do
          dst.(pos + k) <- Int64.to_int (read (addr + k))
        done);
    write_is =
      (fun addr src pos len ->
        for k = 0 to len - 1 do
          write (addr + k) (Int64.of_int src.(pos + k))
        done);
  }

type app = {
  name : string;
  shared_words : int;
  eager_lock_hints : int list;
  init : Memory.t -> unit;
  work : ctx -> unit;
  checksum_addr : int;
  stats : unit -> (string * int) list;
  max_procs : int;
}

let no_stats () = []

let run_sequential app =
  let mem = Memory.create ~words:app.shared_words in
  app.init mem;
  let pass = fun addr words ~f -> f addr words in
  let fcell = ref 0.0 in
  let icell = ref 0 in
  let ctx =
    {
      id = 0;
      nprocs = 1;
      read = Memory.get mem;
      write = Memory.set mem;
      fcell;
      readf = (fun addr -> fcell := Memory.get_float mem addr);
      writef = (fun addr -> Memory.set_float mem addr !fcell);
      icell;
      readi = (fun addr -> icell := Memory.get_int mem addr);
      writei = (fun addr -> Memory.set_int mem addr !icell);
      range = range_ops_of_runs ~mem ~read_run:pass ~write_run:pass;
      lock = ignore;
      unlock = ignore;
      barrier = ignore;
      compute = ignore;
      clock = (fun () -> 0);
    }
  in
  app.work ctx;
  mem

let checksum_of mem app = Memory.get_float mem app.checksum_addr
