(* Every QCheck property of the suite runs through [to_alcotest], from
   the same fixed random state: a property that fails in CI fails again,
   on the same counterexample, from the same command. *)

let to_alcotest test =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20 |]) test
