(* Tests of the benchmark's own arithmetic: span self times, the span
   recorder's consistency check, merged histogram percentiles, medians,
   and the result line's round trip through the benchmark's JSON
   parser. *)

open Simbench

(* A fake clock: each read returns the next scripted time. *)
let scripted_clock times =
  let times = ref times in
  fun () ->
    match !times with
    | t :: rest ->
      times := rest;
      t
    | [] -> Alcotest.fail "clock read too often"

let span_tree () =
  let clock =
    scripted_clock [ 0.0; 0.0; 1.0; 3.0; 3.5; 4.0; 4.25; 4.25; 10.0 ]
  in
  let t = Spans.create ~clock ~enabled:true () in
  (* root [0,10] > a [1,3], b [3.5,4.25] > c [4,4.25] *)
  Spans.with_span t "root" (fun () ->
      Spans.with_span t "a" (fun () -> ());
      Spans.with_span t ~cell:7 "b" (fun () ->
          Spans.with_span t "c" (fun () -> ())));
  Spans.spans t

let test_self_times () =
  let spans = span_tree () in
  let self name = List.assoc name (Spans.self_by_name spans) in
  Alcotest.(check (float 1e-12)) "root self" 7.25 (self "root");
  Alcotest.(check (float 1e-12)) "a self" 2.0 (self "a");
  Alcotest.(check (float 1e-12)) "b self" 0.5 (self "b");
  Alcotest.(check (float 1e-12)) "c self" 0.25 (self "c");
  let sum =
    List.fold_left (fun acc (_, x) -> acc +. x) 0.0 (Spans.self_by_name spans)
  in
  Alcotest.(check (float 1e-12)) "self times add up to the root" 10.0 sum;
  let c = List.find (fun s -> s.Spans.name = "c") spans in
  Alcotest.(check int) "cell id is inherited" 7 c.Spans.cell

let test_check_catches_bad_clocks () =
  let ok =
    Spans.create
      ~clock:(scripted_clock [ 0.0; 0.0; 1.0; 2.0; 3.0 ])
      ~enabled:true ()
  in
  Spans.with_span ok "root" (fun () -> Spans.with_span ok "a" (fun () -> ()));
  Alcotest.(check bool)
    "a consistent tree passes" true
    (Spans.check ok = Ok ());
  let fails what times =
    let t = Spans.create ~clock:(scripted_clock times) ~enabled:true () in
    Spans.with_span t "root" (fun () -> Spans.with_span t "a" (fun () -> ()));
    match Spans.check t with
    | Ok () -> Alcotest.failf "missed %s" what
    | Error _ -> ()
  in
  (* origin, root t0, a t0, a t1, root t1 *)
  fails "a span that ends before it starts" [ 0.0; 0.0; 5.0; 4.0; 10.0 ];
  fails "a child that outlives its parent" [ 0.0; 0.0; 1.0; 12.0; 10.0 ];
  let open_span = Spans.create ~enabled:true () in
  match
    Spans.with_span open_span "root" (fun () -> Spans.check open_span)
  with
  | Ok () -> Alcotest.fail "missed an open span"
  | Error _ -> ()

let test_disabled_records_nothing () =
  let t = Spans.create ~enabled:false () in
  Alcotest.(check int) "value passes through" 3
    (Spans.with_span t "x" (fun () -> 3));
  Alcotest.(check int) "no spans" 0 (List.length (Spans.spans t))

let test_merged_quantiles () =
  let rng = Simcore.Rng.create ~seed:11 in
  let whole = Telemetry.Histogram.create () in
  let parts = List.init 5 (fun _ -> Telemetry.Histogram.create ()) in
  List.iteri
    (fun i h ->
      for _ = 1 to 1000 * (i + 1) do
        let mean = 0.1 *. float_of_int (i + 1) in
        let x = Simcore.Rng.exponential rng ~mean in
        Telemetry.Histogram.record h x;
        Telemetry.Histogram.record whole x
      done)
    parts;
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "q=%.2f" q)
        (Telemetry.Histogram.quantile whole q)
        (Summary.merged_quantile parts q))
    [ 0.0; 0.5; 0.9; 0.99; 1.0 ];
  Alcotest.(check (float 0.0)) "merging leaves the inputs alone" 1000.0
    (float_of_int (Telemetry.Histogram.count (List.hd parts)))

let test_median () =
  Alcotest.(check (float 0.0)) "odd" 2.0 (Summary.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 0.0))
    "even" 2.5
    (Summary.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Summary.median: empty")
    (fun () -> ignore (Summary.median []))

let test_relative () =
  (* The host runs twice as slow during the second part. *)
  let parts = [ (1.0, [ 0.01; 0.01 ]); (4.0, [ 0.02 ]) ] in
  Alcotest.(check (float 1e-9)) "per-part speed" 300.0
    (Summary.relative parts);
  let slower =
    List.map (fun (t, k) -> (1.5 *. t, List.map (( *. ) 1.5) k)) parts
  in
  Alcotest.(check (float 1e-9)) "a uniform slowdown cancels" 300.0
    (Summary.relative slower);
  Alcotest.(check (float 0.0)) "mean" 2.0 (Summary.mean [ 1.0; 2.0; 3.0 ])

let test_json_round_trip () =
  let v =
    Json.Obj
      [
        ("correct", Json.Bool true);
        ("attempted", Json.Num 16.0);
        ("failed", Json.Num 0.0);
        ( "metrics",
          Json.Obj
            [
              ( "wall_s",
                Json.Obj
                  [
                    ("value", Json.Num 2.9663419723510742);
                    ("unit", Json.Str "s");
                  ] );
              ( "tiny",
                Json.Obj
                  [ ("value", Json.Num 1.2e-7); ("unit", Json.Str "1/s") ] );
              ( "odd \"name\"\\",
                Json.Arr [ Json.Num (-0.1); Json.Num 1e300; Json.Null ] );
            ] );
      ]
  in
  let s = Json.to_string v in
  Alcotest.(check bool) "one line" false (String.contains s '\n');
  Alcotest.(check bool) "parse (print v) = v" true (Json.parse s = v);
  Alcotest.(check bool)
    "print is stable" true
    (Json.to_string (Json.parse s) = s);
  List.iter
    (fun bad ->
      match Json.parse bad with
      | _ -> Alcotest.failf "accepted %S" bad
      | exception Json.Parse_error _ -> ())
    [ ""; "{"; "{\"a\" 1}"; "[1,]"; "nan"; "{} x"; "\"open" ];
  Alcotest.check_raises "no NaN in output"
    (Invalid_argument "Json.number: nan is not representable") (fun () ->
      ignore (Json.to_string (Json.Num nan)))

let () =
  Alcotest.run "simbench"
    [
      ( "arithmetic",
        [
          Alcotest.test_case "span self times" `Quick test_self_times;
          Alcotest.test_case "span consistency check" `Quick
            test_check_catches_bad_clocks;
          Alcotest.test_case "disabled recorder" `Quick
            test_disabled_records_nothing;
          Alcotest.test_case "merged histogram quantiles" `Quick
            test_merged_quantiles;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "relative times" `Quick test_relative;
          Alcotest.test_case "json round trip" `Quick test_json_round_trip;
        ] );
    ]
