let seed = 0xcbf29ce484222325L
let prime = 0x100000001b3L

(* The running hash lives in a local ref that no closure captures, so
   the native compiler keeps it unboxed: no allocation per byte. *)
let fold h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        prime
  done;
  !h

(* The digits of [k] as [string_of_int] prints them, folded most
   significant first.  The magnitude is walked as a non-positive number
   so that [min_int] needs no special case. *)
let fold_decimal h k =
  let h = ref h in
  let n = ref k in
  if k < 0 then h := Int64.mul (Int64.logxor !h 45L (* '-' *)) prime
  else n := -k;
  let p = ref 1 in
  while !n / !p <= -10 do
    p := !p * 10
  done;
  while !p > 0 do
    let d = - (!n / !p) in
    h := Int64.mul (Int64.logxor !h (Int64.of_int (48 + d))) prime;
    n := !n + (d * !p);
    p := !p / 10
  done;
  !h

(* The digits of [x] as [Printf.sprintf "%Lx"] prints them: unsigned,
   lowercase, no leading zeros. *)
let fold_hex64 h x =
  let h = ref h in
  let shift = ref 60 in
  while !shift > 0 && Int64.equal (Int64.shift_right_logical x !shift) 0L do
    shift := !shift - 4
  done;
  while !shift >= 0 do
    let d = Int64.to_int (Int64.shift_right_logical x !shift) land 15 in
    let c = if d < 10 then 48 + d else 87 + d in
    h := Int64.mul (Int64.logxor !h (Int64.of_int c)) prime;
    shift := !shift - 4
  done;
  !h

let hash s = fold seed s

let to_hex h = Printf.sprintf "%016Lx" h

let hash_strings parts =
  to_hex
    (List.fold_left (fun h s -> fold (fold h s) "\x00") seed parts)

let hex s = to_hex (hash s)
