type t = int array

let create ~nodes = Array.make nodes 0

let copy = Array.copy

let nodes = Array.length

let dominates a b =
  let n = Array.length a in
  let rec loop i = i >= n || (a.(i) >= b.(i) && loop (i + 1)) in
  assert (Array.length b = n);
  loop 0

let max_into ~into b =
  for i = 0 to Array.length into - 1 do
    if b.(i) > into.(i) then into.(i) <- b.(i)
  done

let join a b =
  let r = copy a in
  max_into ~into:r b;
  r

(* A plain loop, not [Array.fold_left ( + )]: [Record.linear_key] sums a
   whole clock on every comparison of a record sort, and a closure call
   per entry made this the hottest code of large software-DSM runs. *)
let sum t =
  let s = ref 0 in
  for i = 0 to Array.length t - 1 do
    s := !s + t.(i)
  done;
  !s

let equal a b = a = b

let bytes t = 4 * Array.length t

let pp ppf t =
  Format.fprintf ppf "<%s>"
    (String.concat "," (Array.to_list (Array.map string_of_int t)))
