(* The benchmark's own arithmetic, kept apart so the tests can reach it. *)

let median = function
  | [] -> invalid_arg "Summary.median: empty"
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean = function
  | [] -> invalid_arg "Summary.mean: empty"
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs

(* Times in units of a calibration kernel's: each part's time over the
   mean of the kernel's times sampled during it, summed over the parts. *)
let relative parts = sum (fun (time, kernel) -> time /. mean kernel) parts

let sumi f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Quantile of the union of several histograms of one geometry. *)
let merged_quantile hists q =
  match hists with
  | [] -> 0.0
  | h :: rest ->
    let m = Telemetry.Histogram.copy h in
    List.iter (fun h' -> Telemetry.Histogram.merge ~into:m h') rest;
    Telemetry.Histogram.quantile m q
