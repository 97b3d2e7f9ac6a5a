type func =
  | Count_star
  | Count of Expr.t
  | Sum of Expr.t
  | Min of Expr.t
  | Max of Expr.t
  | Avg of Expr.t
  | First of Expr.t

type spec = { func : func; name : string }

let count_star name = { func = Count_star; name }

let count e name = { func = Count e; name }

let sum e name = { func = Sum e; name }

let min_ e name = { func = Min e; name }

let max_ e name = { func = Max e; name }

let avg e name = { func = Avg e; name }

let first e name = { func = First e; name }

let arg = function
  | Count_star -> None
  | Count e | Sum e | Min e | Max e | Avg e | First e -> Some e

let map_arg f = function
  | Count_star -> Count_star
  | Count e -> Count (f e)
  | Sum e -> Sum (f e)
  | Min e -> Min (f e)
  | Max e -> Max (f e)
  | Avg e -> Avg (f e)
  | First e -> First (f e)

let output_ty frames spec =
  match spec.func with
  | Count_star | Count _ -> Value.Tint
  | Avg _ -> Value.Tfloat
  | Sum e | Min e | Max e | First e -> (
    match Expr.infer frames e with
    | Some ty -> ty
    | None -> Value.Tint (* aggregating a NULL literal; any type will do *))

let equal_func a b =
  match a, b with
  | Count_star, Count_star -> true
  | Count x, Count y | Sum x, Sum y | Min x, Min y | Max x, Max y | Avg x, Avg y | First x, First y
    ->
    Expr.equal x y
  | (Count_star | Count _ | Sum _ | Min _ | Max _ | Avg _ | First _), _ -> false

(* FIRST keeps the earliest non-NULL value, so which of two partial
   states came first decides the merge; every other state is a
   commutative combination. *)
let order_sensitive = function
  | First _ -> true
  | Count_star | Count _ | Sum _ | Min _ | Max _ | Avg _ -> false

let func_to_string = function
  | Count_star -> "count(*)"
  | Count e -> Printf.sprintf "count(%s)" (Expr.to_string e)
  | Sum e -> Printf.sprintf "sum(%s)" (Expr.to_string e)
  | Min e -> Printf.sprintf "min(%s)" (Expr.to_string e)
  | Max e -> Printf.sprintf "max(%s)" (Expr.to_string e)
  | Avg e -> Printf.sprintf "avg(%s)" (Expr.to_string e)
  | First e -> Printf.sprintf "first(%s)" (Expr.to_string e)

let pp_spec ppf spec = Format.fprintf ppf "%s -> %s" (func_to_string spec.func) spec.name

type kind = Kcount_star | Kcount | Ksum | Kmin | Kmax | Kavg | Kfirst

type compiled = { kind : kind; eval : (Tuple.t array -> Value.t) option }

type acc = {
  compiled : compiled;
  mutable n : int;  (* rows seen for count-star; non-null values seen otherwise *)
  mutable acc_v : Value.t;  (* running sum / min / max *)
  mutable fsum : float;  (* running sum for avg *)
}

let compile frames spec =
  let kind =
    match spec.func with
    | Count_star -> Kcount_star
    | Count _ -> Kcount
    | Sum _ -> Ksum
    | Min _ -> Kmin
    | Max _ -> Kmax
    | Avg _ -> Kavg
    | First _ -> Kfirst
  in
  let eval = Option.map (Expr.compile_frames frames) (arg spec.func) in
  { kind; eval }

let make compiled = { compiled; n = 0; acc_v = Value.Null; fsum = 0.0 }

let to_float = function
  | Value.Int i -> float_of_int i
  | Value.Float f -> f
  | v -> Value.type_error "avg over non-numeric value %s" (Value.to_string v)

let step acc ctx =
  match acc.compiled.kind with
  | Kcount_star -> acc.n <- acc.n + 1
  | Kcount ->
    let v = (Option.get acc.compiled.eval) ctx in
    if not (Value.is_null v) then acc.n <- acc.n + 1
  | Ksum ->
    let v = (Option.get acc.compiled.eval) ctx in
    if not (Value.is_null v) then begin
      acc.acc_v <- (if acc.n = 0 then v else Value.add acc.acc_v v);
      acc.n <- acc.n + 1
    end
  | Kmin ->
    let v = (Option.get acc.compiled.eval) ctx in
    if not (Value.is_null v) then begin
      if acc.n = 0 || Value.compare v acc.acc_v < 0 then acc.acc_v <- v;
      acc.n <- acc.n + 1
    end
  | Kmax ->
    let v = (Option.get acc.compiled.eval) ctx in
    if not (Value.is_null v) then begin
      if acc.n = 0 || Value.compare v acc.acc_v > 0 then acc.acc_v <- v;
      acc.n <- acc.n + 1
    end
  | Kavg ->
    let v = (Option.get acc.compiled.eval) ctx in
    if not (Value.is_null v) then begin
      acc.fsum <- acc.fsum +. to_float v;
      acc.n <- acc.n + 1
    end
  | Kfirst ->
    let v = (Option.get acc.compiled.eval) ctx in
    if not (Value.is_null v) then begin
      if acc.n = 0 then acc.acc_v <- v;
      acc.n <- acc.n + 1
    end

let step_back acc ctx =
  match acc.compiled.kind with
  | Kcount_star -> acc.n <- acc.n - 1
  | Kcount ->
    let v = (Option.get acc.compiled.eval) ctx in
    if not (Value.is_null v) then acc.n <- acc.n - 1
  | Ksum ->
    let v = (Option.get acc.compiled.eval) ctx in
    if not (Value.is_null v) then begin
      acc.acc_v <- Value.sub acc.acc_v v;
      acc.n <- acc.n - 1
    end
  | Kmin | Kmax ->
    invalid_arg "Aggregate.step_back: MIN/MAX cannot be retracted incrementally"
  | Kfirst -> invalid_arg "Aggregate.step_back: FIRST is order-sensitive"
  | Kavg ->
    let v = (Option.get acc.compiled.eval) ctx in
    if not (Value.is_null v) then begin
      acc.fsum <- acc.fsum -. to_float v;
      acc.n <- acc.n - 1
    end

let merge ~into other =
  if into.compiled.kind <> other.compiled.kind then
    invalid_arg "Aggregate.merge: accumulators of different kinds";
  (match into.compiled.kind with
  | Kcount_star | Kcount -> ()
  | Ksum ->
    if other.n > 0 then
      into.acc_v <- (if into.n = 0 then other.acc_v else Value.add into.acc_v other.acc_v)
  | Kmin ->
    if other.n > 0 && (into.n = 0 || Value.compare other.acc_v into.acc_v < 0) then
      into.acc_v <- other.acc_v
  | Kmax ->
    if other.n > 0 && (into.n = 0 || Value.compare other.acc_v into.acc_v > 0) then
      into.acc_v <- other.acc_v
  | Kavg -> into.fsum <- into.fsum +. other.fsum
  | Kfirst ->
    (* Concatenation order: [into] precedes [other] (see
       [order_sensitive]). *)
    if into.n = 0 && other.n > 0 then into.acc_v <- other.acc_v);
  into.n <- into.n + other.n

let value acc =
  match acc.compiled.kind with
  | Kcount_star | Kcount -> Value.Int acc.n
  | Ksum | Kmin | Kmax | Kfirst -> if acc.n = 0 then Value.Null else acc.acc_v
  | Kavg -> if acc.n = 0 then Value.Null else Value.Float (acc.fsum /. float_of_int acc.n)
