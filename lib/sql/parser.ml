open Subql_relational
module N = Subql_nested.Nested_ast
module L = Lexer

type statement = { query : N.query }

exception Parse_error of string * int

type state = { tokens : (L.token * int) array; mutable pos : int }

let error st fmt =
  let offset =
    if st.pos < Array.length st.tokens then snd st.tokens.(st.pos) else 0
  in
  Format.kasprintf (fun msg -> raise (Parse_error (msg, offset))) fmt

let peek st = fst st.tokens.(st.pos)

let peek2 st =
  if st.pos + 1 < Array.length st.tokens then fst st.tokens.(st.pos + 1) else L.Eof

let advance st = st.pos <- st.pos + 1

let expect st tok =
  if peek st = tok then advance st
  else error st "expected %s, found %s" (L.token_to_string tok) (L.token_to_string (peek st))

let expect_ident st =
  match peek st with
  | L.Ident name ->
    advance st;
    name
  | t -> error st "expected an identifier, found %s" (L.token_to_string t)

(* ------------------------------------------------------------------ *)
(* Scalar expressions                                                   *)
(* ------------------------------------------------------------------ *)

let parse_column_ref st =
  let first = expect_ident st in
  if peek st = L.Dot then begin
    advance st;
    let name = expect_ident st in
    (Some first, name)
  end
  else (None, first)

(* Register an aggregate occurrence, reusing an existing column when the
   same aggregate already appears (in the select list or earlier in
   HAVING). *)
let register_agg collector func =
  match List.find_opt (fun (f, _) -> Aggregate.equal_func f func) !collector with
  | Some (_, name) -> name
  | None ->
    let name = Printf.sprintf "agg$%d" (List.length !collector + 1) in
    collector := !collector @ [ (func, name) ];
    name

(* A left-associative chain of [operand]s joined by the operators in [ops]. *)
let binary_chain st ops operand =
  let lhs = ref (operand ()) in
  let rec loop () =
    match List.assoc_opt (peek st) ops with
    | Some op ->
      advance st;
      lhs := Expr.Arith (op, !lhs, operand ());
      loop ()
    | None -> ()
  in
  loop ();
  !lhs

(* Scalar expressions.  With [aggs] (HAVING), an aggregate call parses
   as a reference to its registered result column. *)
let rec parse_expr ?aggs st =
  binary_chain st
    [ (L.Plus, Expr.Add); (L.Minus, Expr.Sub) ]
    (fun () ->
      binary_chain st
        [ (L.Star, Expr.Mul); (L.Slash, Expr.Div); (L.Percent, Expr.Mod) ]
        (fun () -> parse_unary ?aggs st))

and parse_unary ?aggs st =
  match peek st, aggs with
  | L.Minus, _ ->
    advance st;
    Expr.Neg (parse_unary ?aggs st)
  | ((L.Count | L.Sum | L.Min | L.Max | L.Avg | L.First) as kw), Some coll ->
    Expr.attr (register_agg coll (parse_agg_func st kw))
  | _ -> parse_primary_expr ?aggs st

and parse_primary_expr ?aggs st =
  match peek st with
  | L.Int_lit i ->
    advance st;
    Expr.int i
  | L.Float_lit f ->
    advance st;
    Expr.float f
  | L.String_lit s ->
    advance st;
    Expr.str s
  | L.True ->
    advance st;
    Expr.bool true
  | L.False ->
    advance st;
    Expr.bool false
  | L.Null ->
    advance st;
    Expr.null
  | L.Ident _ ->
    let rel, name = parse_column_ref st in
    Expr.Attr (rel, name)
  | L.Lparen ->
    advance st;
    let e = parse_expr ?aggs st in
    expect st L.Rparen;
    e
  | t -> error st "expected an expression, found %s" (L.token_to_string t)

and parse_agg_func st kw =
  advance st;
  expect st L.Lparen;
  let func =
    match kw, peek st with
    | L.Count, L.Star ->
      advance st;
      Aggregate.Count_star
    | _ ->
      let e = parse_expr st in
      (match kw with
      | L.Count -> Aggregate.Count e
      | L.Sum -> Aggregate.Sum e
      | L.Min -> Aggregate.Min e
      | L.Max -> Aggregate.Max e
      | L.Avg -> Aggregate.Avg e
      | L.First -> Aggregate.First e
      | _ -> assert false)
  in
  expect st L.Rparen;
  func

(* ------------------------------------------------------------------ *)
(* Predicates and subqueries                                            *)
(* ------------------------------------------------------------------ *)

let cmp_of_token = function
  | L.Eq -> Some Expr.Eq
  | L.Neq -> Some Expr.Ne
  | L.Lt -> Some Expr.Lt
  | L.Le -> Some Expr.Le
  | L.Gt -> Some Expr.Gt
  | L.Ge -> Some Expr.Ge
  | _ -> None

(* What the subquery SELECTs; a bare or qualified column is resolved
   against the subquery alias once FROM has been parsed. *)
type raw_sel = Rstar | Rcol of string option * string | Ragg of Aggregate.func

let parse_alias st default =
  match peek st with
  | L.As ->
    advance st;
    expect_ident st
  | L.Ident _ -> expect_ident st
  | _ -> default

let rec parse_subquery st =
  expect st L.Select;
  let sel =
    match peek st with
    | L.Star ->
      advance st;
      Rstar
    | L.Int_lit _ ->
      (* the SELECT 1 idiom for EXISTS *)
      advance st;
      Rstar
    | (L.Count | L.Sum | L.Min | L.Max | L.Avg | L.First) as kw ->
      Ragg (parse_agg_func st kw)
    | L.Ident _ ->
      let rel, name = parse_column_ref st in
      Rcol (rel, name)
    | t -> error st "expected a subquery select item, found %s" (L.token_to_string t)
  in
  expect st L.From;
  let table = expect_ident st in
  let alias = parse_alias st table in
  let where = if peek st = L.Where then (advance st; parse_pred st) else N.Ptrue in
  expect st L.Rparen;
  (sel, N.table table, alias, where)

and sub_column st alias = function
  | Rcol (None, name) -> name
  | Rcol (Some r, name) when r = alias -> name
  | Rcol (Some r, name) ->
    error st "subquery select column must belong to %s, found %s.%s" alias r name
  | Rstar -> error st "this subquery must select a single column"
  | Ragg _ -> error st "this subquery must select a column, not an aggregate"

and parse_pred st = parse_or st

and parse_or st =
  let lhs = ref (parse_and st) in
  while peek st = L.Or do
    advance st;
    lhs := N.por !lhs (parse_and st)
  done;
  !lhs

and parse_and st =
  let lhs = ref (parse_not st) in
  while peek st = L.And do
    advance st;
    lhs := N.pand !lhs (parse_not st)
  done;
  !lhs

and parse_not st =
  if peek st = L.Not then begin
    advance st;
    N.pnot (parse_not st)
  end
  else parse_pred_primary st

and parse_pred_primary st =
  match peek st with
  | L.Exists ->
    advance st;
    expect st L.Lparen;
    let sel, source, alias, where = parse_subquery st in
    (match sel with
    | Rstar | Rcol _ -> ()
    | Ragg _ -> error st "EXISTS subquery cannot select an aggregate");
    N.Sub { kind = N.Exists; source; s_alias = alias; s_where = where }
  | L.Lparen -> (
    (* Either a parenthesized predicate or a parenthesized scalar
       expression starting a comparison: try the predicate first. *)
    let saved = st.pos in
    advance st;
    match parse_pred st with
    | p when peek st = L.Rparen ->
      advance st;
      p
    | _ ->
      st.pos <- saved;
      parse_comparison st
    | exception Parse_error _ ->
      st.pos <- saved;
      parse_comparison st)
  | _ -> parse_comparison st

and parse_comparison st =
  let lhs = parse_expr st in
  match peek st with
  | L.Between ->
    advance st;
    let lo = parse_expr st in
    expect st L.And;
    let hi = parse_expr st in
    N.atom (Expr.and_ (Expr.ge lhs lo) (Expr.le lhs hi))
  | L.Not when peek2 st = L.Between ->
    advance st;
    advance st;
    let lo = parse_expr st in
    expect st L.And;
    let hi = parse_expr st in
    (* NOT BETWEEN under 3VL: the complement of the conjunction. *)
    N.atom (Expr.not_ (Expr.and_ (Expr.ge lhs lo) (Expr.le lhs hi)))
  | L.Is ->
    advance st;
    let negated = peek st = L.Not in
    if negated then advance st;
    expect st L.Null;
    N.atom (if negated then Expr.Is_not_null lhs else Expr.Is_null lhs)
  | L.In ->
    advance st;
    expect st L.Lparen;
    let sel, source, alias, where = parse_subquery st in
    let col = sub_column st alias sel in
    N.Sub { kind = N.In_ (lhs, col); source; s_alias = alias; s_where = where }
  | L.Not when peek2 st = L.In ->
    advance st;
    advance st;
    expect st L.Lparen;
    let sel, source, alias, where = parse_subquery st in
    let col = sub_column st alias sel in
    N.Sub { kind = N.Not_in (lhs, col); source; s_alias = alias; s_where = where }
  | tok -> (
    match cmp_of_token tok with
    | None -> error st "expected a comparison, IS NULL, or IN, found %s" (L.token_to_string tok)
    | Some op -> (
      advance st;
      match peek st with
      | L.Any | L.Some_kw ->
        advance st;
        expect st L.Lparen;
        let sel, source, alias, where = parse_subquery st in
        let col = sub_column st alias sel in
        N.Sub { kind = N.Quant (lhs, op, N.Qsome, col); source; s_alias = alias; s_where = where }
      | L.All ->
        advance st;
        expect st L.Lparen;
        let sel, source, alias, where = parse_subquery st in
        let col = sub_column st alias sel in
        N.Sub { kind = N.Quant (lhs, op, N.Qall, col); source; s_alias = alias; s_where = where }
      | L.Lparen when peek2 st = L.Select ->
        advance st;
        let sel, source, alias, where = parse_subquery st in
        (match sel with
        | Ragg func ->
          N.Sub { kind = N.Cmp_agg (lhs, op, func); source; s_alias = alias; s_where = where }
        | Rcol _ ->
          let col = sub_column st alias sel in
          N.Sub { kind = N.Cmp_scalar (lhs, op, col); source; s_alias = alias; s_where = where }
        | Rstar -> error st "a comparison subquery must select a column or an aggregate")
      | _ ->
        let rhs = parse_expr st in
        N.atom (Expr.Cmp (op, lhs, rhs))))


(* ------------------------------------------------------------------ *)
(* HAVING: aggregate-aware predicate over the grouped result            *)
(* ------------------------------------------------------------------ *)

let rec parse_h_pred st coll = parse_h_or st coll

and parse_h_or st coll =
  let lhs = ref (parse_h_and st coll) in
  while peek st = L.Or do
    advance st;
    lhs := Expr.or_ !lhs (parse_h_and st coll)
  done;
  !lhs

and parse_h_and st coll =
  let lhs = ref (parse_h_not st coll) in
  while peek st = L.And do
    advance st;
    lhs := Expr.and_ !lhs (parse_h_not st coll)
  done;
  !lhs

and parse_h_not st coll =
  if peek st = L.Not then begin
    advance st;
    Expr.not_ (parse_h_not st coll)
  end
  else parse_h_leaf st coll

and parse_h_leaf st coll =
  match peek st with
  | L.Lparen -> (
    let saved = st.pos in
    advance st;
    match parse_h_pred st coll with
    | p when peek st = L.Rparen ->
      advance st;
      p
    | _ ->
      st.pos <- saved;
      parse_h_comparison st coll
    | exception Parse_error _ ->
      st.pos <- saved;
      parse_h_comparison st coll)
  | L.Exists -> error st "HAVING does not support subqueries"
  | _ -> parse_h_comparison st coll

and parse_h_comparison st coll =
  let lhs = parse_expr ~aggs:coll st in
  match peek st with
  | L.Is ->
    advance st;
    let negated = peek st = L.Not in
    if negated then advance st;
    expect st L.Null;
    if negated then Expr.Is_not_null lhs else Expr.Is_null lhs
  | tok -> (
    match cmp_of_token tok with
    | Some op ->
      advance st;
      Expr.Cmp (op, lhs, parse_expr ~aggs:coll st)
    | None -> error st "expected a comparison in HAVING, found %s" (L.token_to_string tok))

(* ------------------------------------------------------------------ *)
(* Top-level statement                                                  *)
(* ------------------------------------------------------------------ *)

type sel_item =
  | Item_star
  | Item_col of string option * string
  | Item_expr of Expr.t * string
  | Item_agg of Aggregate.func * string option

let parse_select_item st =
  match peek st with
  | L.Star ->
    advance st;
    Item_star
  | (L.Count | L.Sum | L.Min | L.Max | L.Avg | L.First) as kw ->
    let func = parse_agg_func st kw in
    let name =
      if peek st = L.As then begin
        advance st;
        Some (expect_ident st)
      end
      else None
    in
    Item_agg (func, name)
  | _ -> (
    let start = st.pos in
    let e = parse_expr st in
    match peek st, e with
    | L.As, _ ->
      advance st;
      Item_expr (e, expect_ident st)
    | _, Expr.Attr (rel, name) when st.pos = start + (match rel with Some _ -> 3 | None -> 1) ->
      Item_col (rel, name)
    | _, Expr.Attr (_, name) -> Item_expr (e, name)
    | _ -> error st "a computed select item needs an AS name")

let parse_statement st =
  expect st L.Select;
  let distinct =
    if peek st = L.Distinct then begin
      advance st;
      true
    end
    else false
  in
  let items =
    let rec loop acc =
      let item = parse_select_item st in
      if peek st = L.Comma then begin
        advance st;
        loop (item :: acc)
      end
      else List.rev (item :: acc)
    in
    loop []
  in
  expect st L.From;
  let rec from_items acc =
    let table = expect_ident st in
    let alias = parse_alias st table in
    let acc = (table, alias) :: acc in
    if peek st = L.Comma then begin
      advance st;
      from_items acc
    end
    else List.rev acc
  in
  let from = from_items [] in
  let base, alias =
    match from with
    | [ (table, alias) ] -> (N.table table, alias)
    | items ->
      let product =
        List.fold_left
          (fun acc (table, alias) ->
            let item = N.Balias (alias, N.table table) in
            match acc with None -> Some item | Some p -> Some (N.Bproduct (p, item)))
          None items
      in
      (Option.get product, "")
  in
  let where = if peek st = L.Where then (advance st; parse_pred st) else N.Ptrue in
  let group_keys =
    if peek st = L.Group then begin
      advance st;
      expect st L.By;
      let rec cols acc =
        let c = parse_column_ref st in
        if peek st = L.Comma then begin
          advance st;
          cols (c :: acc)
        end
        else List.rev (c :: acc)
      in
      cols []
    end
    else []
  in
  let agg_collector = ref [] in
  let having =
    if peek st = L.Having then begin
      advance st;
      Some (parse_h_pred st agg_collector)
    end
    else None
  in
  let order_by =
    if peek st = L.Order then begin
      advance st;
      expect st L.By;
      let rec items acc =
        let col = parse_column_ref st in
        let dir =
          match peek st with
          | L.Asc ->
            advance st;
            `Asc
          | L.Desc ->
            advance st;
            `Desc
          | _ -> `Asc
        in
        if peek st = L.Comma then begin
          advance st;
          items ((col, dir) :: acc)
        end
        else List.rev ((col, dir) :: acc)
      in
      items []
    end
    else []
  in
  let limit =
    if peek st = L.Limit then begin
      advance st;
      match peek st with
      | L.Int_lit n when n >= 0 ->
        advance st;
        Some n
      | t -> error st "LIMIT expects a non-negative integer, found %s" (L.token_to_string t)
    end
    else None
  in
  if peek st <> L.Eof then error st "trailing input: %s" (L.token_to_string (peek st));
  let has_aggs =
    List.exists (function Item_agg _ -> true | Item_star | Item_col _ | Item_expr _ -> false) items
  in
  let select =
    if group_keys = [] && (not has_aggs) && having = None then
      match items with
      | [ Item_star ] -> N.Select_all
      | items
        when List.for_all
               (function
                 | Item_col _ -> true | Item_star | Item_expr _ | Item_agg _ -> false)
               items ->
        N.Select_cols
          (List.map
             (function
               | Item_col (r, n) -> (r, n)
               | Item_star | Item_expr _ | Item_agg _ -> assert false)
             items)
      | items ->
        N.Select_exprs
          (List.map
             (function
               | Item_expr (e, n) -> (e, n)
               | Item_col (r, n) -> (Expr.Attr (r, n), n)
               | Item_agg _ -> assert false
               | Item_star -> error st "* cannot be combined with other select items")
             items)
    else begin
      let used_names = ref [] in
      let uniquify base_name =
        let rec go candidate i =
          if List.mem candidate !used_names then go (Printf.sprintf "%s%d" base_name i) (i + 1)
          else begin
            used_names := candidate :: !used_names;
            candidate
          end
        in
        go base_name 2
      in
      let display_of_func = function
        | Aggregate.Count_star | Aggregate.Count _ -> "count"
        | Aggregate.Sum _ -> "sum"
        | Aggregate.Min _ -> "min"
        | Aggregate.Max _ -> "max"
        | Aggregate.Avg _ -> "avg"
        | Aggregate.First _ -> "first"
      in
      let out =
        List.map
          (fun item ->
            match item with
            | Item_star -> error st "SELECT * cannot be combined with GROUP BY"
            | Item_col (r, n) ->
              ignore (uniquify n);
              (Expr.Attr (r, n), n)
            | Item_expr (e, n) ->
              ignore (uniquify n);
              (e, n)
            | Item_agg (func, explicit) ->
              let display =
                match explicit with Some n -> uniquify n | None -> uniquify (display_of_func func)
              in
              let internal = register_agg agg_collector func in
              (Expr.attr internal, display))
          items
      in
      let aggs = List.map (fun (func, name) -> { Aggregate.func; name }) !agg_collector in
      N.Select_grouped { N.keys = group_keys; aggs; having; out }
    end
  in
  (* A computed or grouped select list emits unqualified columns, so an
     ORDER BY key qualified with a FROM alias names the bare output
     column. *)
  let order_by =
    match select with
    | N.Select_exprs _ | N.Select_grouped _ ->
      List.map (fun ((_, name), dir) -> ((None, name), dir)) order_by
    | N.Select_all | N.Select_cols _ -> order_by
  in
  { query = N.query ~select ~distinct ~order_by ?limit ~base ~alias where }

let parse input =
  match L.tokenize input with
  | exception L.Lex_error (msg, pos) -> raise (Parse_error (msg, pos))
  | tokens ->
    let st = { tokens = Array.of_list tokens; pos = 0 } in
    parse_statement st

let parse_exn_to_string input =
  match parse input with
  | _ -> "no error"
  | exception Parse_error (msg, offset) ->
    let offset = min offset (max 0 (String.length input - 1)) in
    let line_start =
      match String.rindex_from_opt input (max 0 (offset - 1)) '\n' with
      | Some i -> i + 1
      | None -> 0
    in
    let line_end =
      match String.index_from_opt input offset '\n' with
      | Some i -> i
      | None -> String.length input
    in
    let line = String.sub input line_start (line_end - line_start) in
    let caret = String.make (max 0 (offset - line_start)) ' ' ^ "^" in
    Printf.sprintf "parse error: %s\n  %s\n  %s" msg line caret
