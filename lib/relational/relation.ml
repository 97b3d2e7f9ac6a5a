type t = { schema : Schema.t; rows : Tuple.t array }

let check_row schema (row : Tuple.t) =
  if Array.length row <> Schema.arity schema then
    invalid_arg
      (Printf.sprintf "Relation: row arity %d does not match schema arity %d"
         (Array.length row) (Schema.arity schema));
  Array.iteri
    (fun i v ->
      let a = Schema.attr_at schema i in
      if not (Value.conforms v a.Schema.ty) then
        invalid_arg
          (Printf.sprintf "Relation: value %s does not conform to %s:%s"
             (Value.to_string v) (Schema.qualified_name a)
             (Value.ty_to_string a.Schema.ty)))
    row

let create ?(check = true) schema rows =
  if check then Array.iter (check_row schema) rows;
  { schema; rows }

let of_list ?check schema rows = create ?check schema (Array.of_list rows)

let empty schema = { schema; rows = [||] }

let schema r = r.schema

let rows r = r.rows

let cardinality r = Array.length r.rows

let is_empty r = cardinality r = 0

let row r i = r.rows.(i)

let iter f r = Array.iter f r.rows

let iteri f r = Array.iteri f r.rows

let fold f init r = Array.fold_left f init r.rows

let filter p r = { r with rows = Array.of_seq (Seq.filter p (Array.to_seq r.rows)) }

let rename rel r = { r with schema = Schema.rename_rel rel r.schema }

let equal_as_multiset a b =
  Schema.equal_names a.schema b.schema
  && cardinality a = cardinality b
  &&
  let sa = Array.copy a.rows and sb = Array.copy b.rows in
  Array.sort Tuple.compare sa;
  Array.sort Tuple.compare sb;
  Array.for_all2 Tuple.equal sa sb

let pp ppf r =
  let n = Schema.arity r.schema in
  let headers =
    Array.init n (fun i -> Schema.qualified_name (Schema.attr_at r.schema i))
  in
  let widths = Array.map String.length headers in
  Array.iter
    (fun row ->
      Array.iteri
        (fun i v -> widths.(i) <- max widths.(i) (String.length (Value.to_string v)))
        row)
    r.rows;
  let pad i s = s ^ String.make (widths.(i) - String.length s) ' ' in
  let line () =
    Format.fprintf ppf "+";
    Array.iter (fun w -> Format.fprintf ppf "%s+" (String.make (w + 2) '-')) widths;
    Format.fprintf ppf "@\n"
  in
  line ();
  Format.fprintf ppf "|";
  Array.iteri (fun i h -> Format.fprintf ppf " %s |" (pad i h)) headers;
  Format.fprintf ppf "@\n";
  line ();
  Array.iter
    (fun row ->
      Format.fprintf ppf "|";
      Array.iteri (fun i v -> Format.fprintf ppf " %s |" (pad i (Value.to_string v))) row;
      Format.fprintf ppf "@\n")
    r.rows;
  line ();
  Format.fprintf ppf "%d row%s@\n" (cardinality r) (if cardinality r = 1 then "" else "s")
