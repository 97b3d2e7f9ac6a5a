type join_strategy = [ `Hash | `Nested_loop ]

type join_kind = Inner | Left_outer | Semi | Anti

let dummy_row : Tuple.t = [||]

(* ------------------------------------------------------------------ *)
(* Pipelined operators: a per-chunk kernel compiled once per call       *)
(* ------------------------------------------------------------------ *)

let select pred src =
  let schema = Chunk.Source.schema src in
  Expr.typecheck_bool [| schema |] pred;
  let p = Expr.compile schema pred in
  Chunk.Source.map
    (fun c ->
      let out = Vec.create ~capacity:(max 1 (Chunk.length c)) ~dummy:dummy_row () in
      Chunk.iter (fun row -> if Expr.is_true (p row) then Vec.push out row) c;
      Chunk.of_rows schema (Vec.to_array out))
    src

let map_rows out_schema row_fn src =
  Chunk.Source.map ~schema:out_schema
    (fun c ->
      let buf = Chunk.buffer c and off = Chunk.offset c in
      Chunk.of_rows out_schema (Array.init (Chunk.length c) (fun i -> row_fn buf.(off + i))))
    src

let project exprs src =
  let schema = Chunk.Source.schema src in
  let out_attrs =
    List.map
      (fun (e, name) ->
        let ty = match Expr.infer [| schema |] e with Some ty -> ty | None -> Value.Tint in
        Schema.attr name ty)
      exprs
  in
  let fns = Array.of_list (List.map (fun (e, _) -> Expr.compile schema e) exprs) in
  map_rows (Schema.of_list out_attrs) (fun row -> Array.map (fun f -> f row) fns) src

let positions schema cols =
  Array.of_list (List.map (fun (rel_q, name) -> Schema.find schema ?rel:rel_q name) cols)

let project_cols cols src =
  let schema = Chunk.Source.schema src in
  let idxs = positions schema cols in
  map_rows (Schema.project schema idxs) (fun row -> Tuple.project row idxs) src

let project_rel aliases src =
  let keep a =
    if List.mem a.Schema.rel aliases then Some (Some a.Schema.rel, a.Schema.name) else None
  in
  project_cols (List.filter_map keep (Schema.to_list (Chunk.Source.schema src))) src

let rename alias src =
  let schema = Schema.rename_rel alias (Chunk.Source.schema src) in
  Chunk.Source.map ~schema (Chunk.with_schema schema) src

let add_rownum name src =
  let out_schema = Schema.concat (Chunk.Source.schema src) [| Schema.attr name Value.Tint |] in
  let seen = ref 0 in
  Chunk.Source.map ~schema:out_schema
    (fun c ->
      let buf = Chunk.buffer c and off = Chunk.offset c in
      let base = !seen in
      seen := base + Chunk.length c;
      Chunk.of_rows out_schema
        (Array.init (Chunk.length c) (fun i ->
             Tuple.concat buf.(off + i) [| Value.Int (base + i) |])))
    src

let check_compatible name a b =
  if not (Schema.equal_names a b) then invalid_arg (name ^ ": incompatible schemas")

let union_all a b =
  check_compatible "union_all" (Chunk.Source.schema a) (Chunk.Source.schema b);
  Chunk.Source.concat a b

(* ------------------------------------------------------------------ *)
(* Build/probe operators                                                *)
(* ------------------------------------------------------------------ *)

(* Map the probe stream chunk by chunk; [per_row l push] emits the
   output rows of one probe row, so probe-row order is kept. *)
let probe_map out_schema per_row probe =
  Chunk.Source.map ~schema:out_schema
    (fun c ->
      let out = Vec.create ~capacity:(max 1 (Chunk.length c)) ~dummy:dummy_row () in
      let push row = Vec.push out row in
      Chunk.iter (fun l -> per_row l push) c;
      Chunk.of_rows out_schema (Vec.to_array out))
    probe

let product ~build probe =
  let out_schema = Schema.concat (Chunk.Source.schema probe) (Relation.schema build) in
  probe_map out_schema (fun l push -> Relation.iter (fun r -> push (Tuple.concat l r)) build) probe

(* The build side's access path for a join condition: [matches l f]
   calls [f] on every build row the condition holds for against probe
   row [l].  The hash strategy indexes the build rows on the [=]/[<=>]
   columns of the condition and tests only the residual per candidate. *)
let join_matches ~strategy cond ~ls build =
  let rs = Relation.schema build in
  Expr.typecheck_bool [| ls; rs |] cond;
  let full = Expr.compile2 ~left:ls ~right:rs cond in
  let scan_matches l f = Relation.iter (fun r -> if Expr.is_true (full l r) then f r) build in
  match strategy with
  | `Nested_loop -> scan_matches
  | `Hash -> (
    let keys, residual = Expr.split_equi ~left:ls ~right:rs cond in
    match keys with
    | [] -> scan_matches
    | _ ->
      let lcols, rcols, null_safe = Expr.key_columns keys in
      let rrows = Relation.rows build in
      let index = Index.build_rows ~null_safe rrows rcols in
      let test =
        match residual with
        | None -> fun _ _ -> true
        | Some res ->
          let f = Expr.compile2 ~left:ls ~right:rs res in
          fun l r -> Expr.is_true (f l r)
      in
      fun l f ->
        Index.probe_row_iter index l lcols (fun ri ->
            let r = rrows.(ri) in
            if test l r then f r))

exception Found

let has_match matches l =
  try
    matches l (fun _ -> raise Found);
    false
  with Found -> true

let join ?(strategy = `Hash) ~kind cond ~build probe =
  let ls = Chunk.Source.schema probe and rs = Relation.schema build in
  let matches = join_matches ~strategy cond ~ls build in
  match kind with
  | Inner -> probe_map (Schema.concat ls rs) (fun l push -> matches l (fun r -> push (Tuple.concat l r))) probe
  | Left_outer ->
    let pad = Array.make (Schema.arity rs) Value.Null in
    probe_map (Schema.concat ls rs)
      (fun l push ->
        let matched = ref false in
        matches l (fun r ->
            matched := true;
            push (Tuple.concat l r));
        if not !matched then push (Tuple.concat l pad))
      probe
  | Semi -> probe_map ls (fun l push -> if has_match matches l then push l) probe
  | Anti -> probe_map ls (fun l push -> if not (has_match matches l) then push l) probe

(* Each build row cancels one equal probe row: [budget.(g)] is what is
   left of key group [g]'s build rows. *)
let diff_all ~build probe =
  let schema = Chunk.Source.schema probe in
  check_compatible "diff_all" schema (Relation.schema build);
  let cols = Array.init (Schema.arity schema) Fun.id in
  let index = Index.growing cols in
  let budget = Vec.create ~dummy:0 () in
  Relation.iter
    (fun row ->
      let g = Index.find_or_add index row in
      if g = Vec.length budget then Vec.push budget 1 else Vec.set budget g (Vec.get budget g + 1))
    build;
  probe_map schema
    (fun row push ->
      let g = Index.find index row cols in
      if g >= 0 && Vec.get budget g > 0 then Vec.set budget g (Vec.get budget g - 1) else push row)
    probe

(* ------------------------------------------------------------------ *)
(* Breakers: fold a source into a relation                              *)
(* ------------------------------------------------------------------ *)

let group_schema ?keys ~aggs schema =
  let key_idxs =
    match keys with
    | Some keys -> positions schema keys
    | None -> Array.init (Schema.arity schema) Fun.id
  in
  let agg_attrs =
    List.map
      (fun spec -> Schema.attr spec.Aggregate.name (Aggregate.output_ty [| schema |] spec))
      aggs
  in
  (key_idxs, Schema.concat (Schema.project schema key_idxs) (Schema.of_list agg_attrs))

(* Resumable grouping state: the slot table behind GROUP BY, DISTINCT
   (the zero-aggregate grouping on every column) and the global
   aggregate (the grouping on no column), exposed so the spill path can
   freeze the group set at a budget and route rows of unseen keys to
   disk.  Each group is a slot of one {!Aggregate.states}, numbered as
   its group in a growing {!Index} on the key columns. *)
module Group_acc = struct
  type t = {
    key_idxs : int array;
    out_schema : Schema.t;
    index : Index.t;
    states : Aggregate.states;
    pairs : Aggregate.pairs;
  }

  let size t = Index.cardinality t.index

  let slot t row =
    let n = size t in
    let g = Index.find_or_add t.index row in
    if g = n then ignore (Aggregate.add_slot t.states);
    g

  let create ?keys ~aggs schema =
    let key_idxs, out_schema = group_schema ?keys ~aggs schema in
    let compiled = Array.of_list (List.map (Aggregate.compile [| schema |]) aggs) in
    let t =
      {
        key_idxs;
        out_schema;
        index = Index.growing key_idxs;
        states = Aggregate.states compiled ~slots:0;
        pairs = Aggregate.pairs ();
      }
    in
    (* No keys: the one group exists before any row arrives, so an empty
       input still yields its row of aggregate identities. *)
    if keys = Some [] then ignore (slot t Tuple.empty);
    t

  let fold_chunk t ~capacity ~overflow chunk =
    let buf = Chunk.buffer chunk and lo = Chunk.offset chunk in
    let flush () = Aggregate.fold_pairs ~retract:false t.states ~outer:[||] chunk t.pairs in
    for ri = lo to lo + Chunk.length chunk - 1 do
      let row = buf.(ri) in
      let g = if size t < capacity then slot t row else Index.find t.index row t.key_idxs in
      if g < 0 then overflow row else if Aggregate.add_pair t.pairs ri g then flush ()
    done;
    flush ()

  let rows t =
    let keys = Index.keys t.index in
    match Aggregate.width t.states with
    | 0 -> keys
    | width ->
      Array.mapi
        (fun slot key ->
          let nk = Array.length key in
          let out = Array.make (nk + width) Value.Null in
          Array.blit key 0 out 0 nk;
          Aggregate.write t.states slot out nk;
          out)
        keys

  let result t = Relation.create ~check:false t.out_schema (rows t)
end

let group_by ?keys ~aggs src =
  let acc = Group_acc.create ?keys ~aggs (Chunk.Source.schema src) in
  Chunk.Source.iter (Group_acc.fold_chunk acc ~capacity:max_int ~overflow:ignore) src;
  Group_acc.result acc

let sort ~by ?limit src =
  let rel = Chunk.Source.to_relation src in
  let schema = Relation.schema rel in
  let rows =
    match by with
    | [] -> Relation.rows rel
    | by ->
      let keys =
        List.map (fun ((rel_q, name), dir) -> (Schema.find schema ?rel:rel_q name, dir)) by
      in
      let compare_rows a b =
        let rec loop = function
          | [] -> 0
          | (i, dir) :: rest ->
            let c = Value.compare a.(i) b.(i) in
            let c = match dir with `Asc -> c | `Desc -> -c in
            if c <> 0 then c else loop rest
        in
        loop keys
      in
      let rows = Array.copy (Relation.rows rel) in
      Array.stable_sort compare_rows rows;
      rows
  in
  let rows =
    match limit with
    | Some n when n < Array.length rows -> Array.sub rows 0 (max n 0)
    | Some _ | None -> rows
  in
  Relation.create ~check:false schema rows
