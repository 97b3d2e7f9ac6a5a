open Subql_relational
open Subql

type report = {
  label : string;
  diags : Diag.t list;
  schema : Schema.t option;
  nulls : Nullability.t array option;
  plan : Algebra.t option;
}

let analyze_plan env ~label plan =
  let v = Typing.infer env plan in
  {
    label;
    diags = Diag.sort (v.Typing.diags @ Lint.plan_lints plan);
    schema = v.Typing.schema;
    nulls = v.Typing.nulls;
    plan = Some plan;
  }

let analyze_query ?(flags = Optimize.all) catalog ~label query =
  let env = Typing.env_of_catalog catalog in
  let qdiags = Lint.query_lints env query in
  match Transform.to_algebra query with
  | exception Transform.Unsupported msg ->
    {
      label;
      diags =
        Diag.sort
          (Diag.error ~code:"TRF001" ("translation unsupported: " ^ msg)
          :: qdiags);
      schema = None;
      nulls = None;
      plan = None;
    }
  | raw ->
    let v0 = Typing.infer env raw in
    let optimized = Optimize.optimize ~flags raw in
    let vdiags = Verify.check_rewrite env ~label:"optimize" ~before:raw ~after:optimized in
    let v1 = Typing.infer env optimized in
    {
      label;
      diags =
        Diag.sort
          (qdiags @ v0.Typing.diags @ vdiags @ v1.Typing.diags
         @ Lint.plan_lints optimized);
      schema = v1.Typing.schema;
      nulls = v1.Typing.nulls;
      plan = Some optimized;
    }

let errors r = Diag.count Diag.Error r.diags

let warnings r = Diag.count Diag.Warning r.diags

(* --- Certification ---------------------------------------------------- *)

type certified = {
  report : report;
  certificate : Cost.certificate option;
  analysis : Diag.t list;
}

let certify ?flags ?(config = Eval.default_config) catalog ~label query =
  let report = analyze_query ?flags catalog ~label query in
  match report.plan with
  | None -> { report; certificate = None; analysis = [] }
  | Some plan ->
    let stats = Cost.Stats.of_catalog catalog in
    let ivl = Interval.certify ~config stats plan in
    let par = Mergeable.certify plan in
    let ing = (Deltaable.analyze plan).Deltaable.diags in
    {
      report;
      certificate = Some ivl.Interval.certificate;
      analysis = Diag.sort (ivl.Interval.diags @ par @ ing);
    }

let certified_errors c = errors c.report + Diag.count Diag.Error c.analysis

let diag_to_json d =
  let open Subql_obs.Json in
  Obj
    [
      ("severity", Str (Diag.severity_to_string d.Diag.severity));
      ("code", Str d.Diag.code);
      ("path", Str (Diag.path_to_string d.Diag.path));
      ("subject", match d.Diag.subject with Some s -> Str s | None -> Null);
      ("message", Str d.Diag.message);
    ]

let report_to_json r =
  let open Subql_obs.Json in
  let diag = diag_to_json in
  Obj
    [
      ("label", Str r.label);
      ("errors", Int (errors r));
      ("warnings", Int (warnings r));
      ("infos", Int (Diag.count Diag.Info r.diags));
      ("diagnostics", List (List.map diag r.diags));
      ( "schema",
        match r.schema with
        | Some s -> Str (Format.asprintf "%a" Schema.pp s)
        | None -> Null );
      ( "nullability",
        match r.nulls with
        | Some ns ->
          List
            (Array.to_list (Array.map (fun n -> Str (Nullability.to_string n)) ns))
        | None -> Null );
    ]

let pp_report ppf r =
  List.iter (fun d -> Format.fprintf ppf "%a@." Diag.pp d) r.diags;
  Format.fprintf ppf "%s: %d error(s), %d warning(s), %d info(s)" r.label
    (errors r) (warnings r)
    (Diag.count Diag.Info r.diags);
  match r.schema, r.nulls with
  | Some s, Some ns ->
    Format.fprintf ppf "; schema:";
    Array.iteri
      (fun i a ->
        Format.fprintf ppf " %s:%s[%s]"
          (Schema.qualified_name a)
          (Value.ty_to_string a.Schema.ty)
          (Nullability.to_string ns.(i)))
      s
  | _ -> Format.fprintf ppf "; no schema (fatal error)"

let certified_to_json c =
  let open Subql_obs.Json in
  let base =
    match report_to_json c.report with
    | Obj fields -> fields
    | other -> [ ("report", other) ]
  in
  Obj
    (base
    @ [
        ( "certificate",
          match c.certificate with
          | Some cert -> Interval.certificate_to_json cert
          | None -> Null );
        ("analysis", List (List.map diag_to_json c.analysis));
        ("certified_errors", Int (certified_errors c));
      ])

let pp_certified ppf c =
  pp_report ppf c.report;
  List.iter (fun d -> Format.fprintf ppf "@.%a" Diag.pp d) c.analysis;
  match c.certificate with
  | None -> Format.fprintf ppf "@.no certificate (fatal error)"
  | Some cert ->
    Format.fprintf ppf "@.certified memory: %s rows peak"
      (Cost.Interval.fmt_bound cert.Cost.bound);
    if cert.Cost.spill_bound > 0. then
      Format.fprintf ppf " (+%s spilled)"
        (Cost.Interval.fmt_bound cert.Cost.spill_bound);
    if cert.Cost.argmax_op <> "" then
      Format.fprintf ppf "; argmax %s at %s (%s rows)" cert.Cost.argmax_op
        (Diag.path_to_string cert.Cost.argmax_path)
        (Cost.Interval.fmt_bound cert.Cost.argmax_rows)
