module Measurement = Gcr_runtime.Measurement

type observation = {
  collector : string;
  total : float;
  apparent_gc : float;
}

let observation metric runs =
  match runs with
  | [] -> None
  | runs when not (List.for_all Measurement.completed runs) -> None
  | runs ->
      let n = float_of_int (List.length runs) in
      let sum f = List.fold_left (fun acc m -> acc +. f m) 0.0 runs in
      Some
        {
          collector = (List.hd runs).Measurement.gc;
          total = sum (Metrics.total metric) /. n;
          apparent_gc = sum (Metrics.apparent_gc metric) /. n;
        }

let other_cost o = o.total -. o.apparent_gc

let ideal_estimate = function
  | [] -> invalid_arg "Lbo.ideal_estimate: no observations"
  | first :: rest ->
      List.fold_left (fun acc o -> Float.min acc (other_cost o)) (other_cost first) rest

let lbo ~ideal ~total =
  if ideal <= 0.0 then invalid_arg "Lbo.lbo: non-positive ideal estimate";
  total /. ideal

let compute observations =
  let ideal = ideal_estimate observations in
  List.map (fun o -> (o, lbo ~ideal ~total:o.total)) observations

let per_invocation_lbos metric ~ideal runs =
  runs
  |> List.filter Measurement.completed
  |> List.map (fun m -> lbo ~ideal ~total:(Metrics.total metric m))
  |> Array.of_list
