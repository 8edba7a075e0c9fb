type pct = { p : int; value : float; n : int; beyond : int }

let min_beyond = 10

(* Integer arithmetic: 0.99 *. 1000. is not exactly 990. *)
let rank ~p n = max 1 (((p * n) + 99) / 100)

let percentile ~p sorted =
  let n = Array.length sorted in
  if n = 0 || p < 1 || p > 100 then None
  else
    let r = rank ~p n in
    let beyond = n - r in
    if beyond < min_beyond then None
    else Some { p; value = sorted.(r - 1); n; beyond }

let median = function
  | [] -> invalid_arg "Sample.median: no values"
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
