type ty = Tint | Tfloat | Tstring | Tbool

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

exception Type_error of string

let type_error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

let ty_of = function
  | Null -> None
  | Int _ -> Some Tint
  | Float _ -> Some Tfloat
  | Str _ -> Some Tstring
  | Bool _ -> Some Tbool

let ty_to_string = function
  | Tint -> "int"
  | Tfloat -> "float"
  | Tstring -> "string"
  | Tbool -> "bool"

let pp_ty ppf ty = Format.pp_print_string ppf (ty_to_string ty)

let equal_ty (a : ty) (b : ty) = a = b

let conforms v ty =
  match ty_of v with None -> true | Some ty' -> equal_ty ty ty'

let is_null = function Null -> true | Int _ | Float _ | Str _ | Bool _ -> false

(* Canonical float rendering: "%g" leaves NaN's sign bit observable
   ("-nan" on most libcs) even though [compare] cannot distinguish NaN
   payloads, so printing would not be a function of the value's
   equivalence class.  Negative zero keeps its sign — it is a genuinely
   different bit pattern, and round-tripping it matters — but every NaN
   prints the one spelling "nan". *)
let float_to_string f =
  if Float.is_nan f then "nan"
  else if f = Float.infinity then "inf"
  else if f = Float.neg_infinity then "-inf"
  else Printf.sprintf "%g" f

let to_string = function
  | Null -> "NULL"
  | Int i -> string_of_int i
  | Float f -> float_to_string f
  | Str s -> s
  | Bool b -> string_of_bool b

let pp ppf v = Format.pp_print_string ppf (to_string v)

(* Rank used to order values of different types in the total [compare]. *)
let rank = function
  | Null -> 0
  | Int _ | Float _ -> 1
  | Str _ -> 2
  | Bool _ -> 3

let compare a b =
  match a, b with
  | Null, Null -> 0
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Str x, Str y -> String.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | _ -> Int.compare (rank a) (rank b)

(* [compare a b = 0], without the call for the common key types. *)
let equal a b =
  match a, b with Int x, Int y -> x = y | Str x, Str y -> String.equal x y | _ -> compare a b = 0

(* Numbers strictly inside (-2^53, 2^53) are exact in both [Int] and
   [Float], so an [Int] there hashes as itself and an integral [Float]
   there as the same int — no float is boxed.  Every other number
   hashes as a float: an [Int] outside the range can only equal a
   [Float] outside it, and OCaml's float hash normalizes -0. and NaN. *)
let exact_int_limit = 9007199254740992

let hash = function
  | Null -> 0
  | Int i when i > -exact_int_limit && i < exact_int_limit -> Hashtbl.hash i
  | Int i -> Hashtbl.hash (float_of_int i)
  | Float f when Float.trunc f = f && Float.abs f < 9007199254740992. ->
    Hashtbl.hash (int_of_float f)
  | Float f -> Hashtbl.hash f
  | Str s -> Hashtbl.hash s
  | Bool b -> Hashtbl.hash b

let cmp3 a b =
  match a, b with
  | Null, _ | _, Null -> None
  | (Int _ | Float _), (Int _ | Float _)
  | Str _, Str _
  | Bool _, Bool _ ->
    Some (compare a b)
  | _ ->
    type_error "cannot compare %s with %s" (to_string a) (to_string b)

let arith name int_op float_op a b =
  match a, b with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> Int (int_op x y)
  | Float x, Float y -> Float (float_op x y)
  | Int x, Float y -> Float (float_op (float_of_int x) y)
  | Float x, Int y -> Float (float_op x (float_of_int y))
  | _ -> type_error "%s: expected numeric operands, got %s and %s" name (to_string a) (to_string b)

let add a b = arith "+" ( + ) ( +. ) a b

let sub a b = arith "-" ( - ) ( -. ) a b

let mul a b = arith "*" ( * ) ( *. ) a b

let div a b =
  match a, b with
  | _, Int 0 -> Null
  | _, Float f when f = 0.0 -> Null
  | _ -> arith "/" ( / ) ( /. ) a b

let modulo a b =
  match a, b with
  | Null, _ | _, Null -> Null
  | Int _, Int 0 -> Null
  | Int x, Int y -> Int (x mod y)
  | _ -> type_error "%%: expected int operands, got %s and %s" (to_string a) (to_string b)

let neg = function
  | Null -> Null
  | Int i -> Int (-i)
  | Float f -> Float (-.f)
  | (Str _ | Bool _) as v -> type_error "negation: expected numeric operand, got %s" (to_string v)

let to_csv_string = function
  | Null -> ""
  | Int i -> string_of_int i
  | Float f -> if Float.is_nan f then "nan" else Printf.sprintf "%h" f
  | Str s -> s
  | Bool b -> string_of_bool b

let of_csv_string ty s =
  if s = "" then Null
  else
    match ty with
    | Tint -> (
      match int_of_string_opt s with
      | Some i -> Int i
      | None -> type_error "invalid int cell %S" s)
    | Tfloat -> (
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> type_error "invalid float cell %S" s)
    | Tstring -> Str s
    | Tbool -> (
      match bool_of_string_opt s with
      | Some b -> Bool b
      | None -> type_error "invalid bool cell %S" s)
