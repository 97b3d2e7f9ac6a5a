(** Recursive-descent parser for the SQL subset, lowering directly to the
    nested query algebra.

    Supported shape (one relation per FROM clause, arbitrary subquery
    nesting in WHERE):

    {v
    SELECT [DISTINCT] * | item, ...
    FROM table [AS] alias
    [WHERE predicate]

    predicate := ... AND/OR/NOT ..., comparisons over arithmetic
                 expressions, e IS [NOT] NULL,
                 EXISTS (subquery), e [NOT] IN (subquery),
                 e op ANY|SOME|ALL (subquery), e op (subquery)
    subquery  := SELECT star | col | agg(col) | count(star)
                 FROM table [AS] alias [WHERE predicate]
    v}

    predicates may also use [e \[NOT\] BETWEEN lo AND hi], and the outer
    query accepts aggregate select items with
    [GROUP BY col, ... \[HAVING pred\]] (HAVING may use aggregates but
    not subqueries), [ORDER BY col \[ASC|DESC\], ...] and [LIMIT n].

    The whole statement lowers into one {!Subql_nested.Nested_ast.query}:
    grouping becomes {!Subql_nested.Nested_ast.Select_grouped}, and
    DISTINCT / ORDER BY / LIMIT become the query's [q_distinct] /
    [q_order_by] / [q_limit].  Every engine evaluates the tail as part
    of the plan, so nothing is left to apply afterwards.  ORDER BY keys
    are resolved against the select list here: after a computed or
    grouped select list, whose outputs are unqualified, a qualified key
    names the bare output column. *)

type statement = { query : Subql_nested.Nested_ast.query }

exception Parse_error of string * int
(** Message and character offset into the input. *)

val parse : string -> statement

val parse_exn_to_string : string -> string
(** Render a {!Parse_error} with a caret into the offending input line —
    convenience for CLI error reporting. *)
