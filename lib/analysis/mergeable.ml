open Subql_relational
open Subql

(* Every aggregate state here has an identity (the fresh accumulator)
   and an associative merge: COUNT/SUM add, MIN/MAX take lattice
   meets/joins, AVG carries (sum, count), FIRST concatenates.  The one
   law that can fail is commutativity: an order-sensitive state
   ([Aggregate.order_sensitive], i.e. FIRST) depends on which partition
   "arrived first".

   Where an aggregate's accumulators can meet a [Chunk.Exchange]:

   - GMDJ blocks ([Md], completed or not): partitioned evaluation gives
     every worker its own accumulator matrix and merges them out of
     input order — the merge must be a {e commutative} monoid, and
     [Gmdj.eval] folds a block list that has an order-sensitive
     aggregate at one domain.
   - [Group_by]: the exchange hash-partitions by group key, so a group
     never splits across workers and no cross-worker merge happens; an
     order-sensitive aggregate is lawful only because routing preserves
     per-key arrival order (and spilling re-streams partition files in
     append order) — worth a warning, not a refusal.  The global
     aggregate ([keys = Some []]) is folded serially on the coordinator. *)
let certify plan =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let check_spec ~path ~merging (spec : Aggregate.spec) =
    let subject = Aggregate.func_to_string spec.Aggregate.func in
    if Aggregate.order_sensitive spec.Aggregate.func then
      if merging then
        emit
          (Diag.makef ~path ~subject Diag.Error ~code:"PAR001"
             "aggregate %s (column %s) merges associatively but not commutatively: \
              partitioned GMDJ evaluation would merge per-domain accumulators out of \
              input order, so this block list is evaluated on one domain"
             subject spec.Aggregate.name)
      else
        emit
          (Diag.makef ~path ~subject Diag.Warning ~code:"PAR003"
             "aggregate %s (column %s) is order-sensitive: lawful under a \
              hash-partitioned exchange only because routing preserves per-key arrival \
              order"
             subject spec.Aggregate.name)
  in
  let check_blocks ~path blocks =
    List.iter
      (fun b -> List.iter (check_spec ~path ~merging:true) b.Subql_gmdj.Gmdj.aggs)
      blocks
  in
  let rec walk rev_path alg =
    let rev_path = Algebra.node_label alg :: rev_path in
    let path = List.rev rev_path in
    (match alg with
    | Algebra.Md { blocks; _ } -> check_blocks ~path blocks
    | Algebra.Group_by { aggs; _ } -> List.iter (check_spec ~path ~merging:false) aggs
    | _ -> ());
    List.iteri
      (fun i c ->
        let slot =
          match alg, i with
          | Algebra.Md _, 0 -> [ "base" ]
          | Algebra.Md _, _ -> [ "detail" ]
          | ( ( Algebra.Product _ | Algebra.Join _ | Algebra.Union_all _
              | Algebra.Diff_all _ ),
              0 ) ->
            [ "left" ]
          | ( ( Algebra.Product _ | Algebra.Join _ | Algebra.Union_all _
              | Algebra.Diff_all _ ),
              _ ) ->
            [ "right" ]
          | _ -> []
        in
        walk (List.rev_append slot rev_path) c)
      (Algebra.children alg)
  in
  walk [] plan;
  Diag.sort !diags

let certified_for_parallel plan = not (Diag.has_errors (certify plan))
