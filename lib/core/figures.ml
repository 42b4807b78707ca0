module Table = Rtnet_util.Table

let real = Printf.sprintf "%.6f"

let fig1 () =
  let m = 4 and t = 64 in
  let tab = Xi.table ~m ~t in
  let csv = Table.create [ "k"; "xi_exact"; "xi_asymptotic" ] in
  for k = 0 to t do
    Table.add_row csv
      [
        string_of_int k;
        string_of_int tab.(k);
        (if k >= 2 then real (Xi.tilde ~m ~t (float_of_int k)) else "");
      ]
  done;
  csv

let fig2 () =
  let b = Xi.table ~m:2 ~t:64 and q = Xi.table ~m:4 ~t:64 in
  let csv = Table.create [ "k"; "xi_binary"; "xi_quaternary" ] in
  for k = 2 to 64 do
    Table.add_int_row csv [ k; b.(k); q.(k) ]
  done;
  csv

let tightness () =
  let csv = Table.create [ "m"; "t"; "max_gap"; "eq13_bound"; "eq14_bound" ] in
  List.iter
    (fun (m, n) ->
      let t = Rtnet_util.Int_math.pow m n in
      Table.add_row csv
        [
          string_of_int m;
          string_of_int t;
          real (Xi.max_gap ~m ~t);
          real (Xi.gap_bound ~m *. float_of_int t);
          real (Xi.gap_bound_universal *. float_of_int t);
        ])
    [ (2, 6); (2, 10); (3, 4); (3, 6); (4, 3); (4, 5); (5, 4); (8, 3); (9, 3) ];
  csv

let p2 () =
  let csv = Table.create [ "m"; "t"; "v"; "u"; "exhaustive"; "bound" ] in
  List.iter
    (fun (m, t, v) ->
      for u = 2 * v to t * v do
        Table.add_row csv
          [
            string_of_int m;
            string_of_int t;
            string_of_int v;
            string_of_int u;
            string_of_int (Multi_tree.worst_exact ~m ~t ~u ~v);
            real (Multi_tree.bound ~m ~t ~u ~v);
          ]
      done)
    [ (2, 8, 2); (2, 8, 4); (4, 16, 2); (3, 9, 3); (4, 16, 4); (3, 27, 3) ];
  csv

let arbitrated () =
  let csv = Table.create [ "m"; "t"; "k"; "zeta"; "xi" ] in
  List.iter
    (fun (m, t) ->
      let z = Xi_arb.table ~m ~t and x = Xi.table ~m ~t in
      for k = 0 to t do
        Table.add_int_row csv [ m; t; k; z.(k); x.(k) ]
      done)
    [ (2, 64); (4, 64) ];
  csv

let expected () =
  let csv = Table.create [ "m"; "t"; "k"; "expected"; "worst" ] in
  List.iter
    (fun (m, t) ->
      for k = 0 to t do
        Table.add_row csv
          [
            string_of_int m;
            string_of_int t;
            string_of_int k;
            real (Xi.expected ~m ~t ~k);
            string_of_int (Xi.exact ~m ~t ~k);
          ]
      done)
    [ (2, 64); (4, 64) ];
  csv

let all =
  [
    ("fig1_quaternary_64", fig1);
    ("fig2_binary_vs_quaternary", fig2);
    ("tightness_eq12_14", tightness);
    ("p2_bound_vs_exhaustive", p2);
    ("arbitrated_zeta_vs_xi", arbitrated);
    ("expected_vs_worst", expected);
  ]
