(* Workload generators: determinism, schema conformance, and the knobs
   the experiments rely on. *)

open Subql_relational
open Subql_workload

(* --- Rng ---------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create ~seed:7L and b = Rng.create ~seed:7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next a) (Rng.next b)
  done;
  let c = Rng.create ~seed:8L in
  Alcotest.(check bool) "different seed differs" true (Rng.next a <> Rng.next c)

let test_rng_ranges () =
  let r = Rng.create ~seed:1L in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 10);
    let v = Rng.int_in r (-5) 5 in
    Alcotest.(check bool) "in inclusive range" true (v >= -5 && v <= 5);
    let f = Rng.float r in
    Alcotest.(check bool) "unit float" true (f >= 0.0 && f < 1.0)
  done;
  (match Rng.int r 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bound 0 rejected")

let test_rng_rough_uniformity () =
  let r = Rng.create ~seed:3L in
  let buckets = Array.make 8 0 in
  let n = 80_000 in
  for _ = 1 to n do
    let b = Rng.int r 8 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iteri
    (fun i count ->
      let expected = n / 8 in
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d within 10%% (%d)" i count)
        true
        (abs (count - expected) < expected / 10))
    buckets

let test_rng_bernoulli_extremes () =
  let r = Rng.create ~seed:5L in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1 always" true (Rng.bernoulli r 1.0);
    Alcotest.(check bool) "p=0 never" false (Rng.bernoulli r 0.0)
  done

let test_rng_shuffle_permutes () =
  let r = Rng.create ~seed:11L in
  let a = Array.init 50 (fun i -> i) in
  let b = Array.copy a in
  Rng.shuffle r b;
  Alcotest.(check bool) "same multiset" true
    (List.sort compare (Array.to_list b) = Array.to_list a);
  Alcotest.(check bool) "actually permuted" true (b <> a)

(* --- Netflow ------------------------------------------------------------- *)

let small_config =
  {
    Netflow.n_flows = 2_000;
    n_hours = 6;
    n_users = 40;
    n_source_ips = 20;
    n_dest_ips = 20;
    http_fraction = 0.5;
    user_ip_match_fraction = 1.0;
    seed = 9L;
  }

let test_netflow_shape () =
  let catalog = Netflow.generate small_config in
  let flow = Catalog.find catalog "Flow" in
  let hours = Catalog.find catalog "Hours" in
  let users = Catalog.find catalog "User" in
  Alcotest.(check int) "flows" 2_000 (Relation.cardinality flow);
  Alcotest.(check int) "hours" 6 (Relation.cardinality hours);
  Alcotest.(check int) "users" 40 (Relation.cardinality users);
  (* Every row conforms to the declared schema. *)
  ignore (Relation.create (Relation.schema flow) (Relation.rows flow));
  ignore (Relation.create (Relation.schema hours) (Relation.rows hours));
  ignore (Relation.create (Relation.schema users) (Relation.rows users))

let test_netflow_hours_partition () =
  let catalog = Netflow.generate small_config in
  let hours = Catalog.find catalog "Hours" in
  let flow = Catalog.find catalog "Flow" in
  (* Hours tile [0, horizon) without gaps, and every flow starts inside
     exactly one hour. *)
  let s = Relation.schema hours in
  let start_i = Schema.find s "StartInterval" and end_i = Schema.find s "EndInterval" in
  let sorted = Ops.sort ~by:[ ((None, "StartInterval"), `Asc) ] (Chunk.Source.of_relation hours) in
  let prev_end = ref (Value.Int 0) in
  Relation.iter
    (fun row ->
      Alcotest.(check bool) "contiguous" true (Value.equal row.(start_i) !prev_end);
      prev_end := row.(end_i))
    sorted;
  let fs = Relation.schema flow in
  let st = Schema.find fs "StartTime" in
  let horizon = match !prev_end with Value.Int h -> h | _ -> assert false in
  Relation.iter
    (fun row ->
      match row.(st) with
      | Value.Int t -> Alcotest.(check bool) "within horizon" true (t >= 0 && t < horizon)
      | _ -> Alcotest.fail "StartTime not an int")
    flow

let test_netflow_protocol_mix () =
  let catalog = Netflow.generate { small_config with Netflow.n_flows = 20_000 } in
  let flow = Catalog.find catalog "Flow" in
  let s = Relation.schema flow in
  let proto = Schema.find s "Protocol" in
  let http =
    Relation.fold
      (fun acc row -> if Value.equal row.(proto) (Value.Str "HTTP") then acc + 1 else acc)
      0 flow
  in
  let frac = float_of_int http /. 20_000.0 in
  Alcotest.(check bool) (Printf.sprintf "http fraction %.3f near 0.5" frac) true
    (frac > 0.45 && frac < 0.55)

let test_netflow_user_ips_match () =
  let catalog = Netflow.generate small_config in
  let users = Catalog.find catalog "User" in
  let s = Relation.schema users in
  let ip_i = Schema.find s "IPAddress" in
  let pool = List.init small_config.Netflow.n_source_ips Netflow.ip in
  Relation.iter
    (fun row ->
      match row.(ip_i) with
      | Value.Str ip -> Alcotest.(check bool) ip true (List.mem ip pool)
      | _ -> Alcotest.fail "IPAddress not a string")
    users

let test_netflow_deterministic () =
  let a = Netflow.generate small_config and b = Netflow.generate small_config in
  List.iter
    (fun t ->
      Alcotest.(check bool) t true
        (Relation.equal_as_multiset (Catalog.find a t) (Catalog.find b t)))
    [ "Flow"; "Hours"; "User" ];
  let c = Netflow.generate { small_config with Netflow.seed = 10L } in
  Alcotest.(check bool) "different seed differs" false
    (Relation.equal_as_multiset (Catalog.find a "Flow") (Catalog.find c "Flow"))

(* --- TPC ----------------------------------------------------------------- *)

let tpc_config = { Tpc.default_config with Tpc.customers = 100; orders = 600; lineitems = 1_500 }

let test_tpc_shape () =
  let catalog = Tpc.generate tpc_config in
  Alcotest.(check int) "customers" 100 (Relation.cardinality (Catalog.find catalog "Customer"));
  Alcotest.(check int) "orders" 600 (Relation.cardinality (Catalog.find catalog "Orders"));
  Alcotest.(check int) "lineitems" 1_500 (Relation.cardinality (Catalog.find catalog "Lineitem"))

let test_tpc_foreign_keys () =
  let catalog = Tpc.generate tpc_config in
  let orders = Catalog.find catalog "Orders" in
  let s = Relation.schema orders in
  let custkey = Schema.find s "o_custkey" in
  Relation.iter
    (fun row ->
      match row.(custkey) with
      | Value.Int k -> Alcotest.(check bool) "custkey in range" true (k >= 1 && k <= 100)
      | _ -> Alcotest.fail "o_custkey not an int")
    orders;
  let lineitem = Catalog.find catalog "Lineitem" in
  let ls = Relation.schema lineitem in
  let okey = Schema.find ls "l_orderkey" in
  Relation.iter
    (fun row ->
      match row.(okey) with
      | Value.Int k -> Alcotest.(check bool) "orderkey in range" true (k >= 1 && k <= 600)
      | _ -> Alcotest.fail "l_orderkey not an int")
    lineitem

let test_tpc_scaled () =
  let config = Tpc.scaled 0.0001 in
  Alcotest.(check int) "customers at sf 0.0001" 15 config.Tpc.customers;
  let catalog = Tpc.generate config in
  Alcotest.(check int) "generated" 15 (Relation.cardinality (Catalog.find catalog "Customer"))

let () =
  Alcotest.run "workload"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_determinism;
          Alcotest.test_case "ranges" `Quick test_rng_ranges;
          Alcotest.test_case "rough uniformity" `Quick test_rng_rough_uniformity;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
        ] );
      ( "netflow",
        [
          Alcotest.test_case "row counts and schemas" `Quick test_netflow_shape;
          Alcotest.test_case "hours partition the horizon" `Quick test_netflow_hours_partition;
          Alcotest.test_case "protocol mix" `Quick test_netflow_protocol_mix;
          Alcotest.test_case "user IPs from the pool" `Quick test_netflow_user_ips_match;
          Alcotest.test_case "deterministic in the seed" `Quick test_netflow_deterministic;
        ] );
      ( "tpc",
        [
          Alcotest.test_case "row counts" `Quick test_tpc_shape;
          Alcotest.test_case "foreign keys in range" `Quick test_tpc_foreign_keys;
          Alcotest.test_case "scale factor" `Quick test_tpc_scaled;
        ] );
    ]
