open Subql_relational
open Subql

let check_rewrite env ~label ~before ~after =
  let vb = Typing.infer env before in
  let va = Typing.infer env after in
  match vb.Typing.schema with
  | None -> [] (* ill-typed input: nothing to preserve *)
  | Some sb ->
    let diags = ref [] in
    (match va.Typing.schema with
    | None -> ()
    | Some sa ->
      if not (Schema.equal_names sb sa) then
        diags :=
          Diag.error ~subject:label ~code:"VER001"
            (Printf.sprintf
               "%s: rewrite changed the inferred schema (%s -> %s)" label
               (Format.asprintf "%a" Schema.pp sb)
               (Format.asprintf "%a" Schema.pp sa))
          :: !diags);
    (match vb.Typing.nulls, va.Typing.nulls with
    | Some nb, Some na when Array.length nb = Array.length na ->
      Array.iteri
        (fun i before_n ->
          if not (Nullability.leq na.(i) before_n) then
            diags :=
              Diag.error
                ~subject:
                  (Schema.qualified_name
                     (Schema.attr_at (Option.get va.Typing.schema) i))
                ~code:"VER002"
                (Printf.sprintf
                   "%s: rewrite widened nullability of column %d (%s -> %s)"
                   label i
                   (Nullability.to_string before_n)
                   (Nullability.to_string na.(i)))
              :: !diags)
        nb
    | _ -> ());
    (* a rewrite must not introduce new type errors *)
    if not (Diag.has_errors vb.Typing.diags) then
      diags := List.filter Diag.is_error va.Typing.diags @ !diags;
    Diag.sort !diags

(* --- Planner candidates ------------------------------------------------ *)

let check_candidate catalog query ~label plan =
  let env = Typing.env_of_catalog catalog in
  let v = Typing.infer env plan in
  let own = List.filter Diag.is_error v.Typing.diags in
  match Transform.to_algebra query with
  | exception Transform.Unsupported _ -> Diag.sort own
  | reference -> (
    let vr = Typing.infer env reference in
    match v.Typing.schema, vr.Typing.schema with
    | Some sp, Some sr when not (Schema.equal_names sp sr) ->
      Diag.sort
        (Diag.error ~subject:label ~code:"VER001"
           (label ^ ": candidate schema differs from the reference translation")
        :: own)
    | _ -> Diag.sort own)
