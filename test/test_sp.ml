(* Tests for series-parallel trees (reordering enumeration, the paper's
   pivot algorithm) and the flattened gate graph (H/G path functions). *)

module T = Sp.Sp_tree
module N = Sp.Network

let l = T.leaf
let s = T.series
let p = T.parallel

(* Random SP tree with distinct leaf labels 0..n-1, for property tests.
   Shapes are kept small so exhaustive checks stay cheap. *)
let sp_gen =
  let open QCheck.Gen in
  let rec shape fuel =
    if fuel <= 1 then return `L
    else
      frequency
        [
          (2, return `L);
          ( 3,
            int_range 2 3 >>= fun k ->
            list_repeat k (shape (fuel / k)) >>= fun cs -> return (`S cs) );
          ( 3,
            int_range 2 3 >>= fun k ->
            list_repeat k (shape (fuel / k)) >>= fun cs -> return (`P cs) );
        ]
  in
  let relabel sh =
    let counter = ref 0 in
    let rec go = function
      | `L ->
          let i = !counter in
          incr counter;
          l i
      | `S cs -> s (List.map go cs)
      | `P cs -> p (List.map go cs)
    in
    go sh
  in
  map relabel (shape 6)

let arbitrary_sp = QCheck.make ~print:(fun t -> T.to_string t) sp_gen

(* Flattening can merge nested series into long chains whose ordering
   count is factorial; keep property inputs to library-gate scale. *)
let small t = QCheck.assume (T.count_orderings t <= 48)

let tree = Alcotest.testable T.pp T.equal

(* --- Sp_tree unit tests --- *)

let test_smart_constructors_flatten () =
  Alcotest.check tree "series flattens"
    (s [ l 0; l 1; l 2 ])
    (s [ s [ l 0; l 1 ]; l 2 ]);
  Alcotest.check tree "parallel flattens"
    (p [ l 0; l 1; l 2 ])
    (p [ l 0; p [ l 1; l 2 ] ]);
  Alcotest.check tree "singleton series collapses" (l 4) (s [ l 4 ]);
  Alcotest.check tree "singleton parallel collapses" (l 4) (p [ l 4 ])

let test_constructors_reject_empty () =
  Alcotest.check_raises "empty series" (Invalid_argument "Sp_tree.series: empty list")
    (fun () -> ignore (s []));
  Alcotest.check_raises "negative leaf" (Invalid_argument "Sp_tree.leaf: negative input index")
    (fun () -> ignore (l (-1)))

let test_observers () =
  let t = s [ l 2; p [ l 0; l 1 ] ] in
  Alcotest.(check (list int)) "inputs sorted" [ 0; 1; 2 ] (T.inputs t);
  Alcotest.(check int) "transistors" 3 (T.transistor_count t);
  Alcotest.(check int) "internal nodes" 1 (T.internal_node_count t);
  Alcotest.(check int) "depth" 2 (T.depth t);
  let nand4 = s [ l 0; l 1; l 2; l 3 ] in
  Alcotest.(check int) "nand4 chain internal nodes" 3 (T.internal_node_count nand4);
  Alcotest.(check int) "nand4 depth" 4 (T.depth nand4)

let test_internal_nodes_nested () =
  (* aoi22 pull-down: parallel of two series pairs: each pair has 1 gap. *)
  let t = p [ s [ l 0; l 1 ]; s [ l 2; l 3 ] ] in
  Alcotest.(check int) "two gaps" 2 (T.internal_node_count t)

let test_dual () =
  let t = s [ l 2; p [ l 0; l 1 ] ] in
  Alcotest.check tree "dual" (p [ l 2; s [ l 0; l 1 ] ]) (T.dual t);
  Alcotest.check tree "dual involutive" t (T.dual (T.dual t))

let test_canonical () =
  let a = p [ l 1; l 0 ] and b = p [ l 0; l 1 ] in
  Alcotest.check tree "parallel order canonicalized" (T.canonical a) (T.canonical b);
  let sa = s [ l 1; l 0 ] and sb = s [ l 0; l 1 ] in
  Alcotest.(check bool) "series order preserved" false
    (T.equal (T.canonical sa) (T.canonical sb))

let test_conduction () =
  let m = Bdd.manager () in
  let t = s [ l 0; p [ l 1; l 2 ] ] in
  let expected_n =
    Bdd.(var m 0 &&& (var m 1 ||| var m 2))
  in
  Alcotest.(check bool) "nmos conduction" true
    (Bdd.equal (T.conduction m T.Nmos t) expected_n);
  let expected_p =
    Bdd.(nvar m 0 &&& (nvar m 1 ||| nvar m 2))
  in
  Alcotest.(check bool) "pmos conduction" true
    (Bdd.equal (T.conduction m T.Pmos t) expected_p)

let test_orderings_counts () =
  let count t = List.length (T.orderings t) in
  Alcotest.(check int) "leaf" 1 (count (l 0));
  Alcotest.(check int) "nand2 chain" 2 (count (s [ l 0; l 1 ]));
  Alcotest.(check int) "nand3 chain" 6 (count (s [ l 0; l 1; l 2 ]));
  Alcotest.(check int) "nand4 chain" 24 (count (s [ l 0; l 1; l 2; l 3 ]));
  Alcotest.(check int) "parallel only" 1 (count (p [ l 0; l 1; l 2 ]));
  (* oai21 pull-down (the paper's running example): 2 configurations. *)
  Alcotest.(check int) "oai21 pd" 2 (count (s [ l 2; p [ l 0; l 1 ] ]));
  (* aoi22 pull-down: two independent pair orders. *)
  Alcotest.(check int) "aoi22 pd" 4 (count (p [ s [ l 0; l 1 ]; s [ l 2; l 3 ] ]));
  (* aoi22 pull-up: outer series order × nothing inside. *)
  Alcotest.(check int) "aoi22 pu" 2 (count (s [ p [ l 0; l 1 ]; p [ l 2; l 3 ] ]))

let test_orderings_contains_original () =
  let t = s [ l 2; p [ l 0; l 1 ] ] in
  Alcotest.(check bool) "original present" true
    (List.exists (fun c -> T.equal (T.canonical c) (T.canonical t)) (T.orderings t))

let test_orderings_identical_branches_dedup () =
  (* Two identical parallel branches: swapping them is the identity, so
     a parallel of two equal series pairs built from the same labels in a
     different arrangement must deduplicate. Here both series branches
     use the same input twice. *)
  let t = p [ s [ l 0; l 0 ]; s [ l 0; l 0 ] ] in
  Alcotest.(check int) "all orders coincide" 1 (List.length (T.orderings t))

let test_count_orderings_closed_form () =
  let check t =
    Alcotest.(check int)
      (T.to_string t)
      (List.length (T.orderings t))
      (T.count_orderings t)
  in
  check (s [ l 0; l 1; l 2 ]);
  check (p [ s [ l 0; l 1 ]; s [ l 2; l 3 ] ]);
  check (s [ p [ l 0; l 1 ]; p [ l 2; l 3 ]; l 4 ])

let test_pivot_basic () =
  let t = s [ l 0; l 1; l 2 ] in
  Alcotest.check tree "pivot gap 0" (s [ l 1; l 0; l 2 ]) (T.pivot t 0);
  Alcotest.check tree "pivot gap 1" (s [ l 0; l 2; l 1 ]) (T.pivot t 1);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Sp_tree.pivot: internal node index out of range")
    (fun () -> ignore (T.pivot t 2))

let test_pivot_nested () =
  (* The gap inside a parallel branch's series pair is an internal node
     too, and pivoting it must only swap that pair. *)
  let t = s [ l 4; p [ s [ l 0; l 1 ]; l 2 ] ] in
  (* gaps in DFS order: 0 = between l4 and the parallel block,
     1 = inside the series pair. *)
  Alcotest.check tree "pivot inner pair"
    (s [ l 4; p [ s [ l 1; l 0 ]; l 2 ] ])
    (T.pivot t 1)

let test_pivot_orderings_example_gate () =
  (* The paper's running example y=(a1+a2)·b. Its pull-down network has 2
     orderings; Fig. 5 explores the full gate (both networks) and finds
     4 — checked at the cell level. Here: the single network. *)
  let t = s [ l 2; p [ l 0; l 1 ] ] in
  Alcotest.(check int) "2 reorderings found" 2 (List.length (T.pivot_orderings t))

let test_pivot_trace_order () =
  let t = s [ l 0; l 1; l 2 ] in
  let log = ref [] in
  let all = T.pivot_orderings ~trace:(fun k cfg -> log := (k, cfg) :: !log) t in
  Alcotest.(check int) "6 configs total" 6 (List.length all);
  Alcotest.(check int) "5 discovered by pivoting" 5 (List.length !log);
  (* First discovery is the pivot of the start on gap 0. *)
  match List.rev !log with
  | (0, first) :: _ -> Alcotest.check tree "first move" (s [ l 1; l 0; l 2 ]) first
  | _ -> Alcotest.fail "expected a first trace entry for gap 0"

(* --- Sp_tree properties --- *)

let canon_set configs =
  List.sort_uniq T.compare (List.map T.canonical configs)

let prop_pivot_involution =
  QCheck.Test.make ~name:"pivot is an involution" ~count:200 arbitrary_sp
    (fun t ->
      let n = T.internal_node_count t in
      n = 0
      || List.for_all
           (fun k -> T.equal (T.canonical (T.pivot (T.pivot t k) k)) (T.canonical t))
           (List.init n Fun.id))

let prop_pivot_matches_enumeration =
  QCheck.Test.make ~name:"pivot algorithm finds exactly the enumerated orderings"
    ~count:200 arbitrary_sp (fun t ->
      small t;
      canon_set (T.pivot_orderings t) = canon_set (T.orderings t))

let prop_orderings_preserve_function =
  QCheck.Test.make ~name:"reordering never changes the conduction function"
    ~count:200 arbitrary_sp (fun t ->
      small t;
      let m = Bdd.manager () in
      let reference = T.conduction m T.Nmos t in
      List.for_all
        (fun c -> Bdd.equal (T.conduction m T.Nmos c) reference)
        (T.orderings t))

let prop_orderings_preserve_counts =
  QCheck.Test.make ~name:"reordering preserves transistor/internal-node counts"
    ~count:200 arbitrary_sp (fun t ->
      small t;
      List.for_all
        (fun c ->
          T.transistor_count c = T.transistor_count t
          && T.internal_node_count c = T.internal_node_count t)
        (T.orderings t))

let prop_dual_conduction_complement =
  QCheck.Test.make
    ~name:"PMOS dual network conducts exactly when the NMOS one does not"
    ~count:200 arbitrary_sp (fun t ->
      let m = Bdd.manager () in
      Bdd.equal
        (T.conduction m T.Pmos (T.dual t))
        (Bdd.not_ (T.conduction m T.Nmos t)))

let prop_count_closed_form =
  QCheck.Test.make ~name:"count_orderings matches enumeration" ~count:200
    arbitrary_sp (fun t ->
      small t;
      T.count_orderings t = List.length (T.orderings t))

(* --- Network unit tests --- *)

let test_network_nand2 () =
  let m = Bdd.manager () in
  let g = N.complementary_gate ~pull_down:(s [ l 0; l 1 ]) in
  Alcotest.(check int) "4 devices" 4 (N.device_count g);
  Alcotest.(check int) "1 internal node" 1 (N.internal_count g);
  Alcotest.(check (list int)) "inputs" [ 0; 1 ] (N.inputs g);
  let y = N.output_function m g in
  Alcotest.(check bool) "y = nand(a,b)" true
    (Bdd.equal y (Bdd.not_ Bdd.(Bdd.var m 0 &&& Bdd.var m 1)));
  Alcotest.(check bool) "complementary" true (N.is_complementary m g);
  Alcotest.(check bool) "no short" false (N.has_short m g)

let test_network_nand2_internal_hg () =
  (* Pull-down [a; b] between output and vss: internal node n0 sits
     between the two NMOS devices. G_n0 = b; H_n0 = a ∧ ¬b (up through
     the a-device to the output, then through the PMOS network, which
     conducts when ¬a ∨ ¬b — conjoined with a this leaves a ∧ ¬b). *)
  let m = Bdd.manager () in
  let g = N.complementary_gate ~pull_down:(s [ l 0; l 1 ]) in
  let n0 = N.Internal 0 in
  Alcotest.(check bool) "G_n0 = b" true
    (Bdd.equal (N.g_function m g n0) (Bdd.var m 1));
  Alcotest.(check bool) "H_n0 = a & !b" true
    (Bdd.equal (N.h_function m g n0) Bdd.(Bdd.var m 0 &&& Bdd.nvar m 1))

let test_network_degree () =
  let g = N.complementary_gate ~pull_down:(s [ l 0; l 1 ]) in
  (* Output node: 1 NMOS terminal + 2 PMOS terminals (parallel pull-up). *)
  Alcotest.(check int) "output degree" 3 (N.node_degree g N.Output);
  Alcotest.(check int) "internal degree" 2 (N.node_degree g (N.Internal 0));
  Alcotest.(check int) "vdd degree" 2 (N.node_degree g N.Vdd);
  Alcotest.(check int) "vss degree" 1 (N.node_degree g N.Vss)

let test_network_example_gate () =
  (* The paper's Fig. 2(a) gate: pull-down (a1|a2).b — H of the internal
     node between the pair and b must route through the output node and
     the pull-up network (the paper's four-minterm example). *)
  let m = Bdd.manager () in
  let a1 = 0 and a2 = 1 and b = 2 in
  let g = N.complementary_gate ~pull_down:(s [ p [ l a1; l a2 ]; l b ]) in
  Alcotest.(check int) "internal nodes" 2 (N.internal_count g);
  Alcotest.(check bool) "complementary" true (N.is_complementary m g);
  Alcotest.(check bool) "no short" false (N.has_short m g);
  (* n0 = between the pair and the b device (pull-down laid first). *)
  let n0 = N.Internal 0 in
  let h = N.h_function m g n0 and gf = N.g_function m g n0 in
  Alcotest.(check bool) "G_n0 = b" true (Bdd.equal gf (Bdd.var m b));
  (* H_n0: up through a1 or a2 to the output, then pull-up conducts when
     the pull-down function (a1|a2).b is false. *)
  let reach_out = Bdd.(Bdd.var m a1 ||| Bdd.var m a2) in
  let pull_up_on =
    Bdd.not_ Bdd.((Bdd.var m a1 ||| Bdd.var m a2) &&& Bdd.var m b)
  in
  Alcotest.(check bool) "H_n0 via output" true
    (Bdd.equal h Bdd.(reach_out &&& pull_up_on));
  Alcotest.(check bool) "H and G disjoint" true (Bdd.is_zero Bdd.(h &&& gf))

let test_network_rejects_rail_query () =
  let m = Bdd.manager () in
  let g = N.complementary_gate ~pull_down:(l 0) in
  Alcotest.check_raises "H of vdd"
    (Invalid_argument "Network: H/G undefined on supply rails") (fun () ->
      ignore (N.h_function m g N.Vdd))

let test_network_terminal_sum () =
  let g =
    N.complementary_gate ~pull_down:(p [ s [ l 0; l 1 ]; s [ l 2; l 3 ] ])
  in
  let all_nodes =
    N.Vdd :: N.Vss :: N.power_nodes g
  in
  let total = List.fold_left (fun acc n -> acc + N.node_degree g n) 0 all_nodes in
  Alcotest.(check int) "terminals = 2 x devices" (2 * N.device_count g) total

(* --- Network properties --- *)

let prop_gate_wellformed =
  QCheck.Test.make ~name:"complementary gates are complementary and short-free"
    ~count:150 arbitrary_sp (fun t ->
      let m = Bdd.manager () in
      let g = N.complementary_gate ~pull_down:t in
      N.is_complementary m g && not (N.has_short m g))

let prop_output_function_is_inverted_pulldown =
  QCheck.Test.make ~name:"output = NOT (pull-down conduction)" ~count:150
    arbitrary_sp (fun t ->
      let m = Bdd.manager () in
      let g = N.complementary_gate ~pull_down:t in
      Bdd.equal (N.output_function m g) (Bdd.not_ (T.conduction m T.Nmos t)))

let prop_internal_counts_add_up =
  QCheck.Test.make ~name:"graph internal nodes = tree gaps of both networks"
    ~count:150 arbitrary_sp (fun t ->
      let g = N.complementary_gate ~pull_down:t in
      N.internal_count g
      = T.internal_node_count t + T.internal_node_count (T.dual t))

let prop_reordering_preserves_output =
  QCheck.Test.make ~name:"any reordering of both networks preserves the output"
    ~count:50 arbitrary_sp (fun t ->
      small t;
      let m = Bdd.manager () in
      let reference = N.output_function m (N.complementary_gate ~pull_down:t) in
      let ups = T.orderings (T.dual t) and downs = T.orderings t in
      List.for_all
        (fun up ->
          List.for_all
            (fun down ->
              Bdd.equal
                (N.output_function m (N.of_networks ~pull_up:up ~pull_down:down))
                reference)
            downs)
        ups)

let () =
  Alcotest.run "sp"
    [
      ( "sp_tree",
        [
          Alcotest.test_case "smart constructors flatten" `Quick
            test_smart_constructors_flatten;
          Alcotest.test_case "constructors reject bad input" `Quick
            test_constructors_reject_empty;
          Alcotest.test_case "observers" `Quick test_observers;
          Alcotest.test_case "nested internal nodes" `Quick
            test_internal_nodes_nested;
          Alcotest.test_case "dual" `Quick test_dual;
          Alcotest.test_case "canonical" `Quick test_canonical;
          Alcotest.test_case "conduction" `Quick test_conduction;
          Alcotest.test_case "ordering counts" `Quick test_orderings_counts;
          Alcotest.test_case "orderings contain original" `Quick
            test_orderings_contains_original;
          Alcotest.test_case "identical branches dedup" `Quick
            test_orderings_identical_branches_dedup;
          Alcotest.test_case "closed-form count" `Quick
            test_count_orderings_closed_form;
          Alcotest.test_case "pivot basic" `Quick test_pivot_basic;
          Alcotest.test_case "pivot nested" `Quick test_pivot_nested;
          Alcotest.test_case "pivot orderings on example" `Quick
            test_pivot_orderings_example_gate;
          Alcotest.test_case "pivot trace" `Quick test_pivot_trace_order;
        ] );
      ( "sp_tree properties",
        [
          Property.to_alcotest prop_pivot_involution;
          Property.to_alcotest prop_pivot_matches_enumeration;
          Property.to_alcotest prop_orderings_preserve_function;
          Property.to_alcotest prop_orderings_preserve_counts;
          Property.to_alcotest prop_dual_conduction_complement;
          Property.to_alcotest prop_count_closed_form;
        ] );
      ( "network",
        [
          Alcotest.test_case "nand2 structure" `Quick test_network_nand2;
          Alcotest.test_case "nand2 internal H/G" `Quick
            test_network_nand2_internal_hg;
          Alcotest.test_case "node degrees" `Quick test_network_degree;
          Alcotest.test_case "paper example gate" `Quick test_network_example_gate;
          Alcotest.test_case "rejects rail query" `Quick
            test_network_rejects_rail_query;
          Alcotest.test_case "terminal count" `Quick test_network_terminal_sum;
        ] );
      ( "network properties",
        [
          Property.to_alcotest prop_gate_wellformed;
          Property.to_alcotest prop_output_function_is_inverted_pulldown;
          Property.to_alcotest prop_internal_counts_add_up;
          Property.to_alcotest prop_reordering_preserves_output;
        ] );
    ]
