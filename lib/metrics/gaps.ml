module Vm = Fisher92_vm.Vm

type summary = {
  g_count : int;
  g_mean : float;
  g_median : float;
  g_p90 : float;
  g_skew : float;
}

let bucket_bounds b = (1 lsl b, 1 lsl (b + 1))

(* Quantile by linear interpolation within the matching power-of-two
   bucket: gaps inside a bucket are assumed uniform. *)
let quantile hist total q =
  if total = 0 then 0.0
  else begin
    let want = q *. float_of_int total in
    let rec go b seen =
      if b >= Array.length hist then float_of_int (1 lsl (Array.length hist - 1))
      else
        let here = hist.(b) in
        if float_of_int (seen + here) >= want && here > 0 then begin
          let lo, hi = bucket_bounds b in
          let into = (want -. float_of_int seen) /. float_of_int here in
          float_of_int lo +. (into *. float_of_int (hi - lo))
        end
        else go (b + 1) (seen + here)
    in
    go 0 0
  end

let summarize_histogram ~count ~sum hist =
  if count = 0 then
    { g_count = 0; g_mean = 0.0; g_median = 0.0; g_p90 = 0.0; g_skew = 0.0 }
  else begin
    let mean = float_of_int sum /. float_of_int count in
    let median = quantile hist count 0.5 in
    let p90 = quantile hist count 0.9 in
    {
      g_count = count;
      g_mean = mean;
      g_median = median;
      g_p90 = p90;
      g_skew = (if median > 0.0 then mean /. median else 0.0);
    }
  end

let summarize (r : Vm.result) =
  summarize_histogram ~count:r.gap_count ~sum:r.gap_sum r.gap_histogram
