(* Shared fixtures and utilities for the test suites. *)

open Subql_relational

let v_int i = Value.Int i

let v_str s = Value.Str s

let schema attrs = Schema.of_list (List.map (fun (rel, name, ty) -> Schema.attr ~rel name ty) attrs)

let rel sch rows = Relation.of_list sch (List.map Array.of_list rows)

(* Stream a whole relation through a chunk-source operator and collect
   the result. *)
let whole op r = Chunk.Source.to_relation (op (Chunk.Source.of_relation r))

(* The Hours and Flow tables of Figure 1 / Example 2.1. *)

let hours_schema =
  schema
    [
      ("Hours", "HourDsc", Value.Tint);
      ("Hours", "StartInterval", Value.Tint);
      ("Hours", "EndInterval", Value.Tint);
    ]

let hours =
  rel hours_schema
    [
      [ v_int 1; v_int 0; v_int 60 ];
      [ v_int 2; v_int 61; v_int 120 ];
      [ v_int 3; v_int 121; v_int 180 ];
    ]

let flow_schema =
  schema
    [
      ("Flow", "StartTime", Value.Tint);
      ("Flow", "Protocol", Value.Tstring);
      ("Flow", "NumBytes", Value.Tint);
    ]

let flow =
  rel flow_schema
    [
      [ v_int 43; v_str "HTTP"; v_int 12 ];
      [ v_int 86; v_str "HTTP"; v_int 36 ];
      [ v_int 99; v_str "FTP"; v_int 48 ];
      [ v_int 132; v_str "HTTP"; v_int 24 ];
      [ v_int 156; v_str "HTTP"; v_int 24 ];
      [ v_int 161; v_str "FTP"; v_int 48 ];
    ]

let check_multiset_equal msg expected actual =
  if not (Relation.equal_as_multiset expected actual) then
    Alcotest.failf "%s:@.expected:@.%a@.actual:@.%a" msg Relation.pp expected Relation.pp
      actual

(* Same columns and the same rows in the same order. *)
let equal_as_list a b =
  Schema.equal_names (Relation.schema a) (Relation.schema b)
  && Relation.cardinality a = Relation.cardinality b
  && Array.for_all2 Tuple.equal (Relation.rows a) (Relation.rows b)

let relation_testable =
  Alcotest.testable Relation.pp Relation.equal_as_multiset

(* Deterministic pseudo-random relation generators for property tests. *)

module Gen = struct
  let small_int = QCheck2.Gen.int_range (-4) 8

  (* A value with occasional NULLs, to exercise 3VL paths. *)
  let value_with_nulls =
    QCheck2.Gen.(
      frequency [ (1, return Value.Null); (6, map (fun i -> Value.Int i) small_int) ])

  let tuple arity = QCheck2.Gen.(array_size (return arity) value_with_nulls)

  let rows arity = QCheck2.Gen.(list_size (int_range 0 24) (tuple arity))

  let relation_gen ~rel_name ~cols =
    let arity = List.length cols in
    QCheck2.Gen.map
      (fun rows ->
        Relation.of_list
          (Schema.of_list (List.map (fun c -> Schema.attr ~rel:rel_name c Value.Tint) cols))
          rows)
      (rows arity)
end

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* GMDJ over an in-memory detail relation, serial unless told otherwise. *)
(* [rel] in chunks of [n] rows, its whole-relation origin dropped so
   that no operator re-slices it: chunk boundaries fall where [n] puts
   them, at any domain count. *)
let chunked n rel = Chunk.Source.map Fun.id (Chunk.Source.of_relation ~chunk_rows:n rel)

let chunk_sizes = [ 1; 3; Chunk.default_rows ]

let gmdj ?strategy ?stats ?completion ?(domains = 1) ~base ~detail blocks =
  Subql_gmdj.Gmdj.eval ?strategy ?stats ?completion ~domains ~base
    (Chunk.Source.of_relation detail) blocks
