type t = {
  tables : (string, Relation.t) Hashtbl.t;
  epochs : (string, int) Hashtbl.t;
}

exception Unknown_table of string

let create () = { tables = Hashtbl.create 16; epochs = Hashtbl.create 16 }

let add t name rel =
  Hashtbl.replace t.epochs name
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.epochs name));
  Hashtbl.replace t.tables name (Relation.rename name rel)

let epoch t name = Option.value ~default:0 (Hashtbl.find_opt t.epochs name)

let find t name =
  match Hashtbl.find_opt t.tables name with
  | Some rel -> rel
  | None -> raise (Unknown_table name)

let find_opt t name = Hashtbl.find_opt t.tables name

let of_list bindings =
  let t = create () in
  List.iter (fun (name, rel) -> add t name rel) bindings;
  t

let tables t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.tables [] |> List.sort String.compare
