module Table = Rtnet_util.Table

let test_render_alignment () =
  let t = Table.create ~aligns:[ Table.Left; Table.Right ] [ "name"; "value" ] in
  Table.add_row t [ "a"; "1" ];
  Table.add_row t [ "long-name"; "12345" ];
  let out = Table.render t in
  Alcotest.(check bool) "contains header" true
    (Astring_contains.contains out "name");
  Alcotest.(check bool) "left-aligned cell" true
    (Astring_contains.contains out "| a        ");
  Alcotest.(check bool) "right-aligned cell" true
    (Astring_contains.contains out "    1 |")

let test_arity_mismatch () =
  let t = Table.create [ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Table.add_row t [ "only-one" ])

let test_int_rows () =
  let t = Table.create [ "k"; "xi" ] in
  Table.add_int_row t [ 2; 11 ];
  Table.add_int_row t [ 3; 10 ];
  let csv = Table.to_csv t in
  Alcotest.(check string) "csv" "k,xi\n2,11\n3,10\n" csv;
  Alcotest.(check (list string)) "column" [ "11"; "10" ] (Table.column t "xi");
  Alcotest.check_raises "unknown column" Not_found (fun () ->
      ignore (Table.column t "nope"))

let test_csv_escaping () =
  let t = Table.create [ "a"; "b" ] in
  Table.add_row t [ "has,comma"; "has\"quote" ];
  let csv = Table.to_csv t in
  Alcotest.(check string) "escaped" "a,b\n\"has,comma\",\"has\"\"quote\"\n" csv

let test_save_csv () =
  let dir = Filename.temp_file "rtnet" "" in
  Sys.remove dir;
  let t = Table.create [ "x" ] in
  Table.add_row t [ "1" ];
  let path = Table.save_csv ~dir ~name:"probe" t in
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Alcotest.(check string) "header written" "x" line

let suite =
  [
    ( "table",
      [
        Alcotest.test_case "render" `Quick test_render_alignment;
        Alcotest.test_case "arity" `Quick test_arity_mismatch;
        Alcotest.test_case "int rows + csv" `Quick test_int_rows;
        Alcotest.test_case "csv escaping" `Quick test_csv_escaping;
        Alcotest.test_case "save csv" `Quick test_save_csv;
      ] );
  ]
