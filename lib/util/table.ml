type align = Left | Right

type t = {
  header : string array;
  aligns : align array;
  mutable rows : string array list; (* reversed *)
}

let create ?aligns header =
  let n = List.length header in
  let aligns =
    match aligns with
    | None -> Array.make n Right
    | Some l ->
      if List.length l <> n then invalid_arg "Table.create: aligns arity";
      Array.of_list l
  in
  { header = Array.of_list header; aligns; rows = [] }

let add_row tbl cells =
  let row = Array.of_list cells in
  if Array.length row <> Array.length tbl.header then
    invalid_arg "Table.add_row: arity mismatch";
  tbl.rows <- row :: tbl.rows

let add_int_row tbl cells = add_row tbl (List.map string_of_int cells)

let column tbl name =
  let rec index i =
    if i = Array.length tbl.header then raise Not_found
    else if tbl.header.(i) = name then i
    else index (i + 1)
  in
  let i = index 0 in
  List.rev_map (fun row -> row.(i)) tbl.rows

let widths tbl =
  let w = Array.map String.length tbl.header in
  let widen row =
    Array.iteri (fun i cell -> w.(i) <- max w.(i) (String.length cell)) row
  in
  List.iter widen tbl.rows;
  w

let pad align width s =
  let fill = width - String.length s in
  match align with
  | Left -> s ^ String.make fill ' '
  | Right -> String.make fill ' ' ^ s

let render tbl =
  let w = widths tbl in
  let buf = Buffer.create 256 in
  let line row =
    Buffer.add_string buf "| ";
    Array.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf " | ";
        Buffer.add_string buf (pad tbl.aligns.(i) w.(i) cell))
      row;
    Buffer.add_string buf " |\n"
  in
  let rule () =
    Buffer.add_char buf '+';
    Array.iter (fun wi -> Buffer.add_string buf (String.make (wi + 2) '-'); Buffer.add_char buf '+') w;
    Buffer.add_char buf '\n'
  in
  rule ();
  line tbl.header;
  rule ();
  List.iter line (List.rev tbl.rows);
  rule ();
  Buffer.contents buf

let csv_cell s =
  let needs_quote =
    String.exists (fun ch -> ch = ',' || ch = '"' || ch = '\n') s
  in
  if not needs_quote then s
  else begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun ch ->
        if ch = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf ch)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

let to_csv tbl =
  let buf = Buffer.create 256 in
  let line row =
    Array.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (csv_cell cell))
      row;
    Buffer.add_char buf '\n'
  in
  line tbl.header;
  List.iter line (List.rev tbl.rows);
  Buffer.contents buf

let print tbl = print_string (render tbl)

let save_csv ~dir ~name tbl =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (name ^ ".csv") in
  let oc = open_out path in
  output_string oc (to_csv tbl);
  close_out oc;
  path
