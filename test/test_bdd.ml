(* Tests for the BDD engine: operator semantics against brute-force truth
   tables, structural invariants (canonicity), cofactors, Boolean
   difference, exact probability, satisfiability helpers. *)

(* A tiny Boolean expression language evaluated two ways: directly on
   assignments, and compiled to a BDD. Random expressions drive the
   property tests. *)
type expr =
  | EVar of int
  | ENot of expr
  | EAnd of expr * expr
  | EOr of expr * expr
  | EXor of expr * expr
  | ETrue
  | EFalse

let rec eval_expr env = function
  | EVar i -> env i
  | ENot e -> not (eval_expr env e)
  | EAnd (a, b) -> eval_expr env a && eval_expr env b
  | EOr (a, b) -> eval_expr env a || eval_expr env b
  | EXor (a, b) -> eval_expr env a <> eval_expr env b
  | ETrue -> true
  | EFalse -> false

let rec compile m = function
  | EVar i -> Bdd.var m i
  | ENot e -> Bdd.not_ (compile m e)
  | EAnd (a, b) -> Bdd.( &&& ) (compile m a) (compile m b)
  | EOr (a, b) -> Bdd.( ||| ) (compile m a) (compile m b)
  | EXor (a, b) -> Bdd.xor (compile m a) (compile m b)
  | ETrue -> Bdd.one m
  | EFalse -> Bdd.zero m

let nvars = 5

let expr_gen =
  let open QCheck.Gen in
  sized @@ fix (fun self n ->
      if n <= 0 then
        oneof
          [ map (fun i -> EVar i) (int_range 0 (nvars - 1)); return ETrue; return EFalse ]
      else
        frequency
          [
            (2, map (fun i -> EVar i) (int_range 0 (nvars - 1)));
            (1, map (fun e -> ENot e) (self (n - 1)));
            (2, map2 (fun a b -> EAnd (a, b)) (self (n / 2)) (self (n / 2)));
            (2, map2 (fun a b -> EOr (a, b)) (self (n / 2)) (self (n / 2)));
            (1, map2 (fun a b -> EXor (a, b)) (self (n / 2)) (self (n / 2)));
          ])

let arbitrary_expr = QCheck.make ~print:(fun _ -> "<expr>") expr_gen

let assignments =
  (* All 2^nvars assignments as env functions. *)
  List.init (1 lsl nvars) (fun bits i -> bits land (1 lsl i) <> 0)

let agree f bdd =
  List.for_all (fun env -> eval_expr env f = Bdd.eval bdd env) assignments

(* --- unit tests --- *)

let test_constants () =
  let m = Bdd.manager () in
  Alcotest.(check bool) "one is one" true (Bdd.is_one (Bdd.one m));
  Alcotest.(check bool) "zero is zero" true (Bdd.is_zero (Bdd.zero m));
  Alcotest.(check bool) "one <> zero" false (Bdd.equal (Bdd.one m) (Bdd.zero m))

let test_var_semantics () =
  let m = Bdd.manager () in
  let x = Bdd.var m 0 in
  Alcotest.(check bool) "x(1)" true (Bdd.eval x (fun _ -> true));
  Alcotest.(check bool) "x(0)" false (Bdd.eval x (fun _ -> false));
  Alcotest.(check bool) "nvar = not var" true
    (Bdd.equal (Bdd.nvar m 0) (Bdd.not_ x))

let test_idempotence_and_complement () =
  let m = Bdd.manager () in
  let x = Bdd.var m 1 and y = Bdd.var m 2 in
  Alcotest.(check bool) "x&x = x" true (Bdd.equal Bdd.(x &&& x) x);
  Alcotest.(check bool) "x|x = x" true (Bdd.equal Bdd.(x ||| x) x);
  Alcotest.(check bool) "x & !x = 0" true (Bdd.is_zero Bdd.(x &&& Bdd.not_ x));
  Alcotest.(check bool) "x | !x = 1" true (Bdd.is_one Bdd.(x ||| Bdd.not_ x));
  Alcotest.(check bool) "de morgan" true
    (Bdd.equal (Bdd.not_ Bdd.(x &&& y)) Bdd.(Bdd.not_ x ||| Bdd.not_ y))

let test_xor_xnor_imply () =
  let m = Bdd.manager () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 in
  Alcotest.(check bool) "xnor = not xor" true
    (Bdd.equal (Bdd.xnor x y) (Bdd.not_ (Bdd.xor x y)));
  Alcotest.(check bool) "imply = !x | y" true
    (Bdd.equal (Bdd.imply x y) Bdd.(Bdd.not_ x ||| y))

let test_conj_disj () =
  let m = Bdd.manager () in
  let vs = List.init 4 (Bdd.var m) in
  Alcotest.(check bool) "empty conj" true (Bdd.is_one (Bdd.conj m []));
  Alcotest.(check bool) "empty disj" true (Bdd.is_zero (Bdd.disj m []));
  let c = Bdd.conj m vs in
  Alcotest.(check bool) "conj all true" true (Bdd.eval c (fun _ -> true));
  Alcotest.(check bool) "conj one false" false
    (Bdd.eval c (fun i -> i <> 2))

let test_hashconsing_canonicity () =
  let m = Bdd.manager () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 in
  (* Same function built two ways must be physically equal. *)
  let f1 = Bdd.(x &&& y ||| (x &&& Bdd.not_ y)) in
  Alcotest.(check bool) "absorbed to x" true (Bdd.equal f1 x)

let test_top_var_and_size () =
  let m = Bdd.manager () in
  let x = Bdd.var m 3 and y = Bdd.var m 7 in
  let f = Bdd.(x &&& y) in
  Alcotest.(check (option int)) "top var is smallest" (Some 3) (Bdd.top_var f);
  Alcotest.(check int) "size of x&y" 2 (Bdd.size f);
  Alcotest.(check int) "size of const" 0 (Bdd.size (Bdd.one m))

let test_support () =
  let m = Bdd.manager () in
  let x = Bdd.var m 0 and y = Bdd.var m 2 and z = Bdd.var m 4 in
  let f = Bdd.(x &&& y ||| (x &&& z)) in
  Alcotest.(check (list int)) "support" [ 0; 2; 4 ] (Bdd.support f);
  (* y xor y has empty support *)
  Alcotest.(check (list int)) "vacuous support" [] (Bdd.support (Bdd.xor y y))

let test_restrict () =
  let m = Bdd.manager () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 in
  let f = Bdd.(x &&& y) in
  Alcotest.(check bool) "f|x=1 = y" true (Bdd.equal (Bdd.restrict f 0 true) y);
  Alcotest.(check bool) "f|x=0 = 0" true (Bdd.is_zero (Bdd.restrict f 0 false));
  Alcotest.(check bool) "restrict absent var" true
    (Bdd.equal (Bdd.restrict f 9 true) f)

let test_compose () =
  let m = Bdd.manager () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 and z = Bdd.var m 2 in
  let f = Bdd.(x ||| y) in
  let g = Bdd.(y &&& z) in
  let h = Bdd.compose f 0 g in
  (* h = (y&z) | y = y *)
  Alcotest.(check bool) "compose simplifies" true (Bdd.equal h y)

let test_quantifiers () =
  let m = Bdd.manager () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 in
  let f = Bdd.(x &&& y) in
  Alcotest.(check bool) "exists x. x&y = y" true (Bdd.equal (Bdd.exists f 0) y);
  Alcotest.(check bool) "forall x. x&y = 0" true (Bdd.is_zero (Bdd.forall f 0));
  Alcotest.(check bool) "forall x. x|!x = 1" true
    (Bdd.is_one (Bdd.forall Bdd.(x ||| Bdd.not_ x) 0))

let test_boolean_difference () =
  let m = Bdd.manager () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 in
  (* d(x&y)/dx = y: toggling x matters exactly when y holds. *)
  Alcotest.(check bool) "d(x&y)/dx = y" true
    (Bdd.equal (Bdd.boolean_difference Bdd.(x &&& y) 0) y);
  (* d(x xor y)/dx = 1. *)
  Alcotest.(check bool) "d(x^y)/dx = 1" true
    (Bdd.is_one (Bdd.boolean_difference (Bdd.xor x y) 0));
  (* d(y)/dx = 0. *)
  Alcotest.(check bool) "d(y)/dx = 0" true
    (Bdd.is_zero (Bdd.boolean_difference y 0))

let test_probability_basic () =
  let m = Bdd.manager () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 in
  let p = function 0 -> 0.5 | 1 -> 0.25 | _ -> 0. in
  Alcotest.(check (float 1e-12)) "P(x&y)" 0.125 (Bdd.probability Bdd.(x &&& y) p);
  Alcotest.(check (float 1e-12)) "P(x|y)" 0.625 (Bdd.probability Bdd.(x ||| y) p);
  Alcotest.(check (float 1e-12)) "P(1)" 1. (Bdd.probability (Bdd.one m) p);
  Alcotest.(check (float 1e-12)) "P(0)" 0. (Bdd.probability (Bdd.zero m) p)

let test_probability_rejects_bad_inputs () =
  let m = Bdd.manager () in
  let x = Bdd.var m 0 in
  Alcotest.check_raises "p > 1 rejected"
    (Invalid_argument "Bdd.probability: variable probability outside [0,1]")
    (fun () -> ignore (Bdd.probability x (fun _ -> 1.5)))

let test_sat_count () =
  let m = Bdd.manager () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 in
  Alcotest.(check (float 1e-9)) "sat(x&y) over 3 vars" 2.
    (Bdd.sat_count Bdd.(x &&& y) ~nvars:3);
  Alcotest.(check (float 1e-9)) "sat(x|y) over 2 vars" 3.
    (Bdd.sat_count Bdd.(x ||| y) ~nvars:2)

let test_any_sat () =
  let m = Bdd.manager () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 in
  Alcotest.(check bool) "unsat gives None" true
    (Bdd.any_sat (Bdd.zero m) = None);
  match Bdd.any_sat Bdd.(x &&& Bdd.not_ y) with
  | None -> Alcotest.fail "expected a witness"
  | Some cube ->
      let env i = List.assoc_opt i cube = Some true in
      Alcotest.(check bool) "witness satisfies" true
        (Bdd.eval Bdd.(x &&& Bdd.not_ y) env)

let test_to_string () =
  let m = Bdd.manager () in
  let names = function 0 -> "a" | 1 -> "b" | _ -> "?" in
  let x = Bdd.var m 0 and y = Bdd.var m 1 in
  Alcotest.(check string) "const one" "1" (Bdd.to_string ~names (Bdd.one m));
  Alcotest.(check string) "const zero" "0" (Bdd.to_string ~names (Bdd.zero m));
  Alcotest.(check string) "a.b" "a.b" (Bdd.to_string ~names Bdd.(x &&& y))

let test_manager_mixing_rejected () =
  let m1 = Bdd.manager () and m2 = Bdd.manager () in
  Alcotest.check_raises "mixing managers"
    (Invalid_argument "Bdd: mixing nodes from two managers") (fun () ->
      ignore Bdd.(Bdd.var m1 0 &&& Bdd.var m2 0))

(* --- property tests --- *)

let prop_compile_agrees =
  QCheck.Test.make ~name:"BDD agrees with direct evaluation" ~count:300
    arbitrary_expr (fun e ->
      let m = Bdd.manager () in
      agree e (compile m e))

let prop_canonical =
  QCheck.Test.make ~name:"equivalent expressions share one node" ~count:200
    (QCheck.pair arbitrary_expr arbitrary_expr) (fun (e1, e2) ->
      let m = Bdd.manager () in
      let b1 = compile m e1 and b2 = compile m e2 in
      let semantically_equal =
        List.for_all
          (fun env -> eval_expr env e1 = eval_expr env e2)
          assignments
      in
      Bdd.equal b1 b2 = semantically_equal)

let prop_shannon_expansion =
  QCheck.Test.make ~name:"f = ite(x, f|x=1, f|x=0)" ~count:200 arbitrary_expr
    (fun e ->
      let m = Bdd.manager () in
      let f = compile m e in
      List.for_all
        (fun i ->
          let x = Bdd.var m i in
          Bdd.equal f (Bdd.ite x (Bdd.restrict f i true) (Bdd.restrict f i false)))
        (List.init nvars Fun.id))

let prop_probability_matches_enumeration =
  QCheck.Test.make ~name:"probability = weighted truth-table sum" ~count:150
    (QCheck.pair arbitrary_expr (QCheck.array_of_size (QCheck.Gen.return nvars)
                                   (QCheck.float_range 0. 1.)))
    (fun (e, probs) ->
      let m = Bdd.manager () in
      let f = compile m e in
      let p i = probs.(i) in
      let expected =
        List.fold_left
          (fun acc env ->
            if eval_expr env e then
              let w = ref 1. in
              for i = 0 to nvars - 1 do
                w := !w *. if env i then p i else 1. -. p i
              done;
              acc +. !w
            else acc)
          0. assignments
      in
      Float.abs (Bdd.probability f p -. expected) < 1e-9)

let prop_boolean_difference_semantics =
  QCheck.Test.make ~name:"boolean difference marks toggling vectors" ~count:150
    (QCheck.pair arbitrary_expr (QCheck.int_range 0 (nvars - 1)))
    (fun (e, i) ->
      let m = Bdd.manager () in
      let f = compile m e in
      let df = Bdd.boolean_difference f i in
      List.for_all
        (fun env ->
          let env_flip j = if j = i then not (env j) else env j in
          Bdd.eval df env = (Bdd.eval f env <> Bdd.eval f env_flip))
        assignments)

let prop_support_is_tight =
  QCheck.Test.make ~name:"restricting a support var changes or keeps f; non-support never changes"
    ~count:150 arbitrary_expr (fun e ->
      let m = Bdd.manager () in
      let f = compile m e in
      let sup = Bdd.support f in
      List.for_all
        (fun i ->
          let changed =
            not (Bdd.equal (Bdd.restrict f i true) (Bdd.restrict f i false))
          in
          changed = List.mem i sup)
        (List.init nvars Fun.id))

let prop_fold_paths_disjoint_cover =
  QCheck.Test.make ~name:"fold_paths cubes form a disjoint cover of the on-set"
    ~count:150 arbitrary_expr (fun e ->
      let m = Bdd.manager () in
      let f = compile m e in
      let cubes = Bdd.fold_paths f ~init:[] ~f:(fun acc c -> c :: acc) in
      let matches env cube =
        List.for_all (fun (v, b) -> env v = b) cube
      in
      List.for_all
        (fun env ->
          let n = List.length (List.filter (matches env) cubes) in
          if eval_expr env e then n = 1 else n = 0)
        assignments)

let () =
  Alcotest.run "bdd"
    [
      ( "unit",
        [
          Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "var semantics" `Quick test_var_semantics;
          Alcotest.test_case "idempotence/complement" `Quick
            test_idempotence_and_complement;
          Alcotest.test_case "xor/xnor/imply" `Quick test_xor_xnor_imply;
          Alcotest.test_case "conj/disj" `Quick test_conj_disj;
          Alcotest.test_case "hash-consing canonicity" `Quick
            test_hashconsing_canonicity;
          Alcotest.test_case "top_var and size" `Quick test_top_var_and_size;
          Alcotest.test_case "support" `Quick test_support;
          Alcotest.test_case "restrict" `Quick test_restrict;
          Alcotest.test_case "compose" `Quick test_compose;
          Alcotest.test_case "quantifiers" `Quick test_quantifiers;
          Alcotest.test_case "boolean difference" `Quick test_boolean_difference;
          Alcotest.test_case "probability basic" `Quick test_probability_basic;
          Alcotest.test_case "probability input validation" `Quick
            test_probability_rejects_bad_inputs;
          Alcotest.test_case "sat_count" `Quick test_sat_count;
          Alcotest.test_case "any_sat" `Quick test_any_sat;
          Alcotest.test_case "to_string" `Quick test_to_string;
          Alcotest.test_case "manager mixing rejected" `Quick
            test_manager_mixing_rejected;
        ] );
      ( "properties",
        [
          Property.to_alcotest prop_compile_agrees;
          Property.to_alcotest prop_canonical;
          Property.to_alcotest prop_shannon_expansion;
          Property.to_alcotest prop_probability_matches_enumeration;
          Property.to_alcotest prop_boolean_difference_semantics;
          Property.to_alcotest prop_support_is_tight;
          Property.to_alcotest prop_fold_paths_disjoint_cover;
        ] );
    ]
