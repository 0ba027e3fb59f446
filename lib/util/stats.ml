let require_nonempty name samples =
  if Array.length samples = 0 then invalid_arg (name ^ ": empty sample set")

let mean samples =
  require_nonempty "Stats.mean" samples;
  Array.fold_left ( +. ) 0.0 samples /. float_of_int (Array.length samples)

let stddev samples =
  let n = Array.length samples in
  if n < 2 then 0.0
  else begin
    let m = mean samples in
    let sum_sq = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 samples in
    sqrt (sum_sq /. float_of_int (n - 1))
  end

(* Two-sided 95% critical values of Student's t distribution, df = 1..30.
   Beyond 30 degrees of freedom the normal approximation is within 2%. *)
let t_table_95 =
  [| 12.706; 4.303; 3.182; 2.776; 2.571; 2.447; 2.365; 2.306; 2.262; 2.228;
     2.201; 2.179; 2.160; 2.145; 2.131; 2.120; 2.110; 2.101; 2.093; 2.086;
     2.080; 2.074; 2.069; 2.064; 2.060; 2.056; 2.052; 2.048; 2.045; 2.042 |]

let t_critical_95 df =
  if df < 1 then invalid_arg "Stats.t_critical_95: df < 1"
  else if df <= Array.length t_table_95 then t_table_95.(df - 1)
  else 1.96

let ci95_half_width samples =
  let n = Array.length samples in
  if n < 2 then 0.0
  else t_critical_95 (n - 1) *. stddev samples /. sqrt (float_of_int n)

let geomean samples =
  require_nonempty "Stats.geomean" samples;
  let sum_logs =
    Array.fold_left
      (fun acc x ->
        if x <= 0.0 then invalid_arg "Stats.geomean: non-positive sample";
        acc +. log x)
      0.0 samples
  in
  exp (sum_logs /. float_of_int (Array.length samples))

let min samples =
  require_nonempty "Stats.min" samples;
  Array.fold_left Stdlib.min samples.(0) samples

let max samples =
  require_nonempty "Stats.max" samples;
  Array.fold_left Stdlib.max samples.(0) samples

let percentile samples p =
  require_nonempty "Stats.percentile" samples;
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p outside [0, 100]";
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

type summary = {
  n : int;
  mean : float;
  stddev : float;
  ci95 : float;
  min : float;
  max : float;
}

let summarize samples =
  require_nonempty "Stats.summarize" samples;
  {
    n = Array.length samples;
    mean = mean samples;
    stddev = stddev samples;
    ci95 = ci95_half_width samples;
    min = min samples;
    max = max samples;
  }
