type cmp = Eq | Ne | Lt | Le | Gt | Ge

type arith = Add | Sub | Mul | Div | Mod

type t =
  | Const of Value.t
  | Attr of string option * string
  | Cmp of cmp * t * t
  | Null_safe_eq of t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | Arith of arith * t * t
  | Neg of t
  | Is_null of t
  | Is_not_null of t
  | Is_true of t

(* Constructors *)

let const v = Const v

let int i = Const (Value.Int i)

let float f = Const (Value.Float f)

let str s = Const (Value.Str s)

let bool b = Const (Value.Bool b)

let null = Const Value.Null

let attr ?rel name = Attr (rel, name)

let cmp op a b = Cmp (op, a, b)

let eq a b = cmp Eq a b

let ne a b = cmp Ne a b

let lt a b = cmp Lt a b

let le a b = cmp Le a b

let gt a b = cmp Gt a b

let ge a b = cmp Ge a b

let and_ a b = And (a, b)

let or_ a b = Or (a, b)

let not_ a = Not a

let conjoin = function
  | [] -> bool true
  | e :: rest -> List.fold_left and_ e rest

let negate_cmp = function
  | Eq -> Ne
  | Ne -> Eq
  | Lt -> Ge
  | Le -> Gt
  | Gt -> Le
  | Ge -> Lt

let swap_cmp = function
  | Eq -> Eq
  | Ne -> Ne
  | Lt -> Gt
  | Le -> Ge
  | Gt -> Lt
  | Ge -> Le

let cmp_to_string = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let rec conjuncts = function
  | And (a, b) -> conjuncts a @ conjuncts b
  | Const (Value.Bool true) -> []
  | e -> [ e ]

(* Analysis *)

let rec fold_exprs f acc e =
  let acc = f acc e in
  match e with
  | Const _ | Attr _ -> acc
  | Cmp (_, a, b) | Null_safe_eq (a, b) | And (a, b) | Or (a, b) | Arith (_, a, b) ->
    fold_exprs f (fold_exprs f acc a) b
  | Not a | Neg a | Is_null a | Is_not_null a | Is_true a -> fold_exprs f acc a

let attrs e =
  fold_exprs (fun acc e -> match e with Attr (r, n) -> (r, n) :: acc | _ -> acc) [] e
  |> List.rev

let qualifiers e =
  let qs =
    fold_exprs
      (fun acc e -> match e with Attr (Some r, _) -> r :: acc | _ -> acc)
      [] e
  in
  List.rev qs |> List.fold_left (fun acc q -> if List.mem q acc then acc else q :: acc) []
  |> List.rev

let references_rel rel e = List.mem rel (qualifiers e)

let rec equal a b =
  match a, b with
  | Const x, Const y -> Value.equal x y && Value.is_null x = Value.is_null y
  | Attr (r1, n1), Attr (r2, n2) -> r1 = r2 && n1 = n2
  | Cmp (o1, a1, b1), Cmp (o2, a2, b2) -> o1 = o2 && equal a1 a2 && equal b1 b2
  | Null_safe_eq (a1, b1), Null_safe_eq (a2, b2)
  | And (a1, b1), And (a2, b2)
  | Or (a1, b1), Or (a2, b2) ->
    equal a1 a2 && equal b1 b2
  | Arith (o1, a1, b1), Arith (o2, a2, b2) -> o1 = o2 && equal a1 a2 && equal b1 b2
  | Not x, Not y | Neg x, Neg y -> equal x y
  | Is_null x, Is_null y | Is_not_null x, Is_not_null y | Is_true x, Is_true y -> equal x y
  | ( ( Const _ | Attr _ | Cmp _ | Null_safe_eq _ | And _ | Or _ | Not _ | Arith _ | Neg _
      | Is_null _ | Is_not_null _ | Is_true _ ),
      _ ) ->
    false

let rec map_attrs f = function
  | Const _ as e -> e
  | Attr (r, n) -> f (r, n)
  | Cmp (op, a, b) -> Cmp (op, map_attrs f a, map_attrs f b)
  | Null_safe_eq (a, b) -> Null_safe_eq (map_attrs f a, map_attrs f b)
  | And (a, b) -> And (map_attrs f a, map_attrs f b)
  | Or (a, b) -> Or (map_attrs f a, map_attrs f b)
  | Not a -> Not (map_attrs f a)
  | Arith (op, a, b) -> Arith (op, map_attrs f a, map_attrs f b)
  | Neg a -> Neg (map_attrs f a)
  | Is_null a -> Is_null (map_attrs f a)
  | Is_not_null a -> Is_not_null (map_attrs f a)
  | Is_true a -> Is_true (map_attrs f a)

let rewrite_qualifier ~from_rel ~to_rel e =
  map_attrs
    (fun (r, n) -> if r = Some from_rel then Attr (Some to_rel, n) else Attr (r, n))
    e

(* Resolution: innermost frame (highest index) wins. *)

let resolve frames (rel, name) =
  let rec loop i =
    if i < 0 then None
    else
      match Schema.find_opt frames.(i) ?rel name with
      | Some pos -> Some (i, pos)
      | None -> loop (i - 1)
  in
  loop (Array.length frames - 1)

let resolve_exn frames (rel, name) =
  match resolve frames (rel, name) with
  | Some slot -> slot
  | None ->
    let shown = match rel with None -> name | Some r -> r ^ "." ^ name in
    raise (Schema.Unknown_attribute shown)

let refs_resolvable frames e =
  List.for_all (fun r -> resolve frames r <> None) (attrs e)

(* Typing.

   [infer_diag] is the primary implementation: it returns a structured
   {!Diag.t} instead of raising, so analysis passes can collect several
   findings and keep going.  The legacy [infer] / [typecheck_bool]
   wrappers re-raise the historical exceptions ([Value.Type_error],
   [Schema.Unknown_attribute], [Schema.Ambiguous_attribute]) for the
   evaluation paths that still want failure-by-exception. *)

let ( let* ) = Result.bind

let type_diag ?path ?subject ~code fmt =
  Format.kasprintf (fun m -> Error (Diag.error ?path ?subject ~code m)) fmt

let resolve_diag ~path frames (rel, name) =
  match resolve frames (rel, name) with
  | Some slot -> Ok slot
  | None ->
    let shown = match rel with None -> name | Some r -> r ^ "." ^ name in
    type_diag ~path ~subject:shown ~code:"SCH001" "unknown attribute %s" shown
  | exception Schema.Ambiguous_attribute shown ->
    type_diag ~path ~subject:shown ~code:"SCH002" "ambiguous attribute %s" shown

let unify_numeric_diag ~path op a b =
  match a, b with
  | None, other | other, None -> (
    match other with
    | None -> Ok None
    | Some (Value.Tint | Value.Tfloat) -> Ok other
    | Some ty ->
      type_diag ~path ~code:"TYP002" "arithmetic %s on non-numeric type %s" op
        (Value.ty_to_string ty))
  | Some Value.Tint, Some Value.Tint -> Ok (Some Value.Tint)
  | Some (Value.Tint | Value.Tfloat), Some (Value.Tint | Value.Tfloat) ->
    Ok (Some Value.Tfloat)
  | Some ty, Some ty' ->
    type_diag ~path ~code:"TYP002" "arithmetic %s on types %s and %s" op
      (Value.ty_to_string ty) (Value.ty_to_string ty')

let comparable a b =
  match a, b with
  | None, _ | _, None -> true
  | Some (Value.Tint | Value.Tfloat), Some (Value.Tint | Value.Tfloat) -> true
  | Some Value.Tstring, Some Value.Tstring -> true
  | Some Value.Tbool, Some Value.Tbool -> true
  | Some _, Some _ -> false

let require_bool_diag ~path context = function
  | None | Some Value.Tbool -> Ok ()
  | Some ty ->
    type_diag ~path ~code:"TYP001" "%s: expected boolean, got %s" context
      (Value.ty_to_string ty)

let rec infer_d ~path frames e =
  match e with
  | Const v -> Ok (Value.ty_of v)
  | Attr (rel, name) ->
    let* fi, pos = resolve_diag ~path frames (rel, name) in
    Ok (Some (Schema.attr_at frames.(fi) pos).Schema.ty)
  | Cmp (op, a, b) ->
    let* ta = infer_d ~path frames a in
    let* tb = infer_d ~path frames b in
    if not (comparable ta tb) then
      type_diag ~path ~code:"TYP002" "comparison %s between incompatible types"
        (cmp_to_string op)
    else Ok (Some Value.Tbool)
  | Null_safe_eq (a, b) ->
    let* ta = infer_d ~path frames a in
    let* tb = infer_d ~path frames b in
    if not (comparable ta tb) then
      type_diag ~path ~code:"TYP002" "null-safe = between incompatible types"
    else Ok (Some Value.Tbool)
  | And (a, b) | Or (a, b) ->
    let* ta = infer_d ~path frames a in
    let* () = require_bool_diag ~path "and/or" ta in
    let* tb = infer_d ~path frames b in
    let* () = require_bool_diag ~path "and/or" tb in
    Ok (Some Value.Tbool)
  | Not a | Is_true a ->
    let* ta = infer_d ~path frames a in
    let* () = require_bool_diag ~path "not/is-true" ta in
    Ok (Some Value.Tbool)
  | Arith (op, a, b) ->
    let name =
      match op with Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
    in
    let* ta = infer_d ~path frames a in
    let* tb = infer_d ~path frames b in
    unify_numeric_diag ~path name ta tb
  | Neg a ->
    let* ta = infer_d ~path frames a in
    unify_numeric_diag ~path "unary -" ta (Some Value.Tint)
  | Is_null a | Is_not_null a ->
    let* _ = infer_d ~path frames a in
    Ok (Some Value.Tbool)

let infer_diag ?(path = []) frames e = infer_d ~path frames e

let typecheck_bool_diag ?(path = []) frames e =
  match
    let* ty = infer_d ~path frames e in
    require_bool_diag ~path "predicate" ty
  with
  | Ok () -> []
  | Error d -> [ d ]

(* The legacy exception corresponding to a diagnostic this module (or the
   plan-schema inference built on it) produced. *)
let raise_diag (d : Diag.t) : 'a =
  let subject = match d.Diag.subject with Some s -> s | None -> d.Diag.message in
  match d.Diag.code with
  | "SCH001" -> raise (Schema.Unknown_attribute subject)
  | "SCH002" -> raise (Schema.Ambiguous_attribute subject)
  | "SCH003" -> invalid_arg d.Diag.message
  | code when String.length code >= 3 && String.sub code 0 3 = "TYP" ->
    raise (Value.Type_error d.Diag.message)
  | _ -> raise (Diag.Fail d)

let infer frames e =
  match infer_d ~path:[] frames e with Ok ty -> ty | Error d -> raise_diag d

let typecheck_bool frames e =
  match
    let* ty = infer_d ~path:[] frames e in
    require_bool_diag ~path:[] "predicate" ty
  with
  | Ok () -> ()
  | Error d -> raise_diag d

(* Compilation *)

(* Shared boolean values: comparisons run in the engines' innermost
   loops, so the results must not allocate. *)
let value_true = Value.Bool true

let value_false = Value.Bool false

let value_of_bool b = if b then value_true else value_false

let eval_cmp op a b =
  match Value.cmp3 a b with
  | None -> Value.Null
  | Some c ->
    let holds =
      match op with
      | Eq -> c = 0
      | Ne -> c <> 0
      | Lt -> c < 0
      | Le -> c <= 0
      | Gt -> c > 0
      | Ge -> c >= 0
    in
    value_of_bool holds

let to_bool3 = function
  | Value.Bool true -> Bool3.True
  | Value.Bool false -> Bool3.False
  | Value.Null -> Bool3.Unknown
  | v -> Value.type_error "expected boolean, got %s" (Value.to_string v)

let of_bool3 = function
  | Bool3.True -> value_true
  | Bool3.False -> value_false
  | Bool3.Unknown -> Value.Null

let is_true = function Value.Bool true -> true | _ -> false

let apply_cmp = eval_cmp

let rec compile_frames frames e =
  match e with
  | Const v -> fun _ -> v
  | Attr (rel, name) ->
    let fi, pos = resolve_exn frames (rel, name) in
    fun ctx -> ctx.(fi).(pos)
  | Cmp (op, a, b) ->
    let fa = compile_frames frames a and fb = compile_frames frames b in
    fun ctx -> eval_cmp op (fa ctx) (fb ctx)
  | Null_safe_eq (a, b) ->
    let fa = compile_frames frames a and fb = compile_frames frames b in
    fun ctx -> value_of_bool (Value.equal (fa ctx) (fb ctx))
  | And (a, b) ->
    let fa = compile_frames frames a and fb = compile_frames frames b in
    fun ctx ->
      (* Short-circuit on False only: False && x = False regardless of x. *)
      (match fa ctx with
      | Value.Bool false -> value_false
      | va -> of_bool3 (Bool3.and_ (to_bool3 va) (to_bool3 (fb ctx))))
  | Or (a, b) ->
    let fa = compile_frames frames a and fb = compile_frames frames b in
    fun ctx ->
      (match fa ctx with
      | Value.Bool true -> value_true
      | va -> of_bool3 (Bool3.or_ (to_bool3 va) (to_bool3 (fb ctx))))
  | Not (Is_true a) ->
    (* Collapse the ALL-kill pattern ¬(e IS TRUE) into one 2VL test. *)
    let fa = compile_frames frames a in
    fun ctx -> value_of_bool (not (is_true (fa ctx)))
  | Not a ->
    let fa = compile_frames frames a in
    fun ctx -> of_bool3 (Bool3.not_ (to_bool3 (fa ctx)))
  | Arith (op, a, b) ->
    let fa = compile_frames frames a and fb = compile_frames frames b in
    let f =
      match op with
      | Add -> Value.add
      | Sub -> Value.sub
      | Mul -> Value.mul
      | Div -> Value.div
      | Mod -> Value.modulo
    in
    fun ctx -> f (fa ctx) (fb ctx)
  | Neg a ->
    let fa = compile_frames frames a in
    fun ctx -> Value.neg (fa ctx)
  | Is_null a ->
    let fa = compile_frames frames a in
    fun ctx -> value_of_bool (Value.is_null (fa ctx))
  | Is_not_null a ->
    let fa = compile_frames frames a in
    fun ctx -> value_of_bool (not (Value.is_null (fa ctx)))
  | Is_true a ->
    let fa = compile_frames frames a in
    fun ctx -> value_of_bool (is_true (fa ctx))

let compile schema e =
  let f = compile_frames [| schema |] e in
  let ctx = [| Tuple.empty |] in
  fun t ->
    ctx.(0) <- t;
    f ctx

let compile2 ~left ~right e =
  let f = compile_frames [| left; right |] e in
  let ctx = [| Tuple.empty; Tuple.empty |] in
  fun l r ->
    ctx.(0) <- l;
    ctx.(1) <- r;
    f ctx

(* Join analysis *)

let resolvable_only_in schema other (rel, name) =
  match Schema.find_opt schema ?rel name with
  | exception Schema.Ambiguous_attribute _ -> None
  | None -> None
  | Some pos -> (
    match Schema.find_opt other ?rel name with
    | exception Schema.Ambiguous_attribute _ -> None
    | Some _ -> None
    | None -> Some pos)

type equi_key = { left_col : int; right_col : int; null_safe : bool }

let split_equi ~left ~right e =
  let key null_safe (ar, an) (br, bn) =
    let a = (ar, an) and b = (br, bn) in
    match resolvable_only_in left right a, resolvable_only_in right left b with
    | Some la, Some rb -> Some { left_col = la; right_col = rb; null_safe }
    | _ -> (
      match resolvable_only_in left right b, resolvable_only_in right left a with
      | Some lb, Some ra -> Some { left_col = lb; right_col = ra; null_safe }
      | _ -> None)
  in
  let classify = function
    | Cmp (Eq, Attr (ar, an), Attr (br, bn)) -> key false (ar, an) (br, bn)
    | Null_safe_eq (Attr (ar, an), Attr (br, bn)) -> key true (ar, an) (br, bn)
    | _ -> None
  in
  let keys, residual =
    List.fold_left
      (fun (keys, residual) conjunct ->
        match classify conjunct with
        | Some k -> (k :: keys, residual)
        | None -> (keys, conjunct :: residual))
      ([], []) (conjuncts e)
  in
  let residual =
    match residual with [] -> None | cs -> Some (conjoin (List.rev cs))
  in
  (List.rev keys, residual)

let key_columns keys =
  let cols f = Array.of_list (List.map f keys) in
  (cols (fun k -> k.left_col), cols (fun k -> k.right_col), cols (fun k -> k.null_safe))

(* Printing *)

let rec pp ppf = function
  | Const v -> Value.pp ppf v
  | Attr (None, n) -> Format.pp_print_string ppf n
  | Attr (Some r, n) -> Format.fprintf ppf "%s.%s" r n
  | Cmp (op, a, b) -> Format.fprintf ppf "(%a %s %a)" pp a (cmp_to_string op) pp b
  | Null_safe_eq (a, b) -> Format.fprintf ppf "(%a <=> %a)" pp a pp b
  | And (a, b) -> Format.fprintf ppf "(%a AND %a)" pp a pp b
  | Or (a, b) -> Format.fprintf ppf "(%a OR %a)" pp a pp b
  | Not a -> Format.fprintf ppf "(NOT %a)" pp a
  | Arith (op, a, b) ->
    let s = match op with Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%" in
    Format.fprintf ppf "(%a %s %a)" pp a s pp b
  | Neg a -> Format.fprintf ppf "(-%a)" pp a
  | Is_null a -> Format.fprintf ppf "(%a IS NULL)" pp a
  | Is_not_null a -> Format.fprintf ppf "(%a IS NOT NULL)" pp a
  | Is_true a -> Format.fprintf ppf "(%a IS TRUE)" pp a

let to_string e = Format.asprintf "%a" pp e
