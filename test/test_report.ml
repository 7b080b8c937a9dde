(* Tests for the report substrate: table layout, CSV escaping, cell
   formatting, summary statistics. *)

module T = Report.Table
module S = Report.Stats

let test_table_render_alignment () =
  let t =
    T.create ~columns:[ ("name", T.Left); ("value", T.Right) ]
  in
  T.add_row t [ "a"; "1" ];
  T.add_row t [ "long-name"; "12345" ];
  let rendered = T.render t in
  let lines = String.split_on_char '\n' rendered in
  (match lines with
  | header :: rule :: row1 :: row2 :: _ ->
      Alcotest.(check string) "header" "name       value" header;
      Alcotest.(check string) "rule" (String.make 16 '-') rule;
      Alcotest.(check string) "row 1 padded" "a              1" row1;
      Alcotest.(check string) "row 2" "long-name  12345" row2
  | _ -> Alcotest.fail "unexpected shape");
  Alcotest.(check bool) "ends with newline" true
    (String.length rendered > 0 && rendered.[String.length rendered - 1] = '\n')

let test_table_separator () =
  let t = T.create ~columns:[ ("x", T.Left) ] in
  T.add_row t [ "1" ];
  T.add_separator t;
  T.add_row t [ "2" ];
  let lines = String.split_on_char '\n' (T.render t) in
  Alcotest.(check int) "6 lines with trailing" 6 (List.length lines)

let test_table_rejects_bad_row () =
  let t = T.create ~columns:[ ("a", T.Left); ("b", T.Left) ] in
  Alcotest.check_raises "wrong width"
    (Invalid_argument "Report.Table.add_row: wrong number of cells") (fun () ->
      T.add_row t [ "only-one" ])

let test_csv () =
  let t = T.create ~columns:[ ("name", T.Left); ("note", T.Left) ] in
  T.add_row t [ "plain"; "with,comma" ];
  T.add_separator t;
  T.add_row t [ "quote\"inside"; "multi\nline" ];
  let csv = T.to_csv t in
  Alcotest.(check string) "escaping"
    "name,note\nplain,\"with,comma\"\n\"quote\"\"inside\",\"multi\nline\"\n" csv

let test_cells () =
  Alcotest.(check string) "float" "3.14" (T.cell_float ~decimals:2 3.14159);
  Alcotest.(check string) "percent" "12.3" (T.cell_percent 12.34);
  Alcotest.(check string) "signed +" "+4.0" (T.cell_signed_percent 4.);
  Alcotest.(check string) "signed -" "-4.7" (T.cell_signed_percent (-4.7));
  Alcotest.(check string) "power uW" "3.42 uW" (T.cell_power 3.42e-6);
  Alcotest.(check string) "power nW" "470 nW" (T.cell_power 4.7e-7);
  Alcotest.(check string) "time ns" "1.24 ns" (T.cell_time 1.24e-9);
  Alcotest.(check string) "time ms" "2 ms" (T.cell_time 2e-3)

let test_stats_basic () =
  Alcotest.(check (float 1e-12)) "mean" 2. (S.mean [ 1.; 2.; 3. ]);
  Alcotest.(check (float 1e-12)) "median odd" 2. (S.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 1e-12)) "median even" 2.5 (S.median [ 1.; 2.; 3.; 4. ]);
  Alcotest.(check (float 1e-12)) "min" 1. (S.minimum [ 3.; 1.; 2. ]);
  Alcotest.(check (float 1e-12)) "max" 3. (S.maximum [ 3.; 1.; 2. ]);
  Alcotest.(check (float 1e-12)) "stddev" (sqrt (2. /. 3.))
    (S.stddev [ 1.; 2.; 3. ])

let test_stats_empty_rejected () =
  Alcotest.check_raises "mean of empty"
    (Invalid_argument "Report.Stats.mean: empty list") (fun () ->
      ignore (S.mean []))

let test_correlation () =
  Alcotest.(check (float 1e-9)) "perfect" 1.
    (S.correlation [ 1.; 2.; 3. ] [ 10.; 20.; 30. ]);
  Alcotest.(check (float 1e-9)) "anti" (-1.)
    (S.correlation [ 1.; 2.; 3. ] [ 3.; 2.; 1. ]);
  Alcotest.(check (float 1e-9)) "constant series" 0.
    (S.correlation [ 1.; 1.; 1. ] [ 1.; 2.; 3. ]);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Report.Stats.correlation: length mismatch") (fun () ->
      ignore (S.correlation [ 1. ] [ 1.; 2. ]))

let test_geometric_mean_ratio () =
  Alcotest.(check (float 1e-9)) "2x everywhere" 2.
    (S.geometric_mean_ratio [ (2., 1.); (4., 2.) ]);
  Alcotest.(check (float 1e-9)) "mixed" 1.
    (S.geometric_mean_ratio [ (2., 1.); (1., 2.) ]);
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Report.Stats.geometric_mean_ratio: non-positive value")
    (fun () -> ignore (S.geometric_mean_ratio [ (0., 1.) ]))

let prop_mean_bounds =
  QCheck.Test.make ~name:"min <= mean <= max" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 20) (float_range (-100.) 100.))
    (fun xs ->
      let m = S.mean xs in
      S.minimum xs <= m +. 1e-9 && m <= S.maximum xs +. 1e-9)

let prop_csv_row_count =
  QCheck.Test.make ~name:"csv has one line per row plus header" ~count:100
    QCheck.(list (pair (string_of_size (QCheck.Gen.int_bound 10))
                    (string_of_size (QCheck.Gen.int_bound 10))))
    (fun rows ->
      let t = T.create ~columns:[ ("a", T.Left); ("b", T.Right) ] in
      List.iter (fun (a, b) -> T.add_row t [ a; b ]) rows;
      let csv = T.to_csv t in
      (* Count unescaped record separators: quoted cells may embed
         newlines, so parse minimally. *)
      let records = ref 0 in
      let in_quotes = ref false in
      String.iter
        (fun c ->
          match c with
          | '"' -> in_quotes := not !in_quotes
          | '\n' when not !in_quotes -> incr records
          | _ -> ())
        csv;
      !records = List.length rows + 1)

let () =
  Alcotest.run "report"
    [
      ( "table",
        [
          Alcotest.test_case "render alignment" `Quick test_table_render_alignment;
          Alcotest.test_case "separator" `Quick test_table_separator;
          Alcotest.test_case "rejects bad row" `Quick test_table_rejects_bad_row;
          Alcotest.test_case "csv" `Quick test_csv;
          Alcotest.test_case "cells" `Quick test_cells;
          Property.to_alcotest prop_csv_row_count;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats_basic;
          Alcotest.test_case "empty rejected" `Quick test_stats_empty_rejected;
          Alcotest.test_case "correlation" `Quick test_correlation;
          Alcotest.test_case "geometric mean ratio" `Quick
            test_geometric_mean_ratio;
          Property.to_alcotest prop_mean_bounds;
        ] );
    ]
