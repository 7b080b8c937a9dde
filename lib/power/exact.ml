module C = Netlist.Circuit

type t = {
  per_net : Stoch.Signal_stats.t array;
  max_size : int;
}

exception Blowup of { net : string; nodes : int }

let run ?(max_nodes = 200_000) circuit ~inputs =
  let m = Bdd.manager () in
  let pis = C.primary_inputs circuit in
  let pi_stats = Array.of_list (List.map inputs pis) in
  let prob i = Stoch.Signal_stats.prob pi_stats.(i) in
  let funcs = Array.make (C.net_count circuit) (Bdd.zero m) in
  List.iteri (fun i net -> funcs.(net) <- Bdd.var m i) pis;
  let max_size = ref 1 in
  List.iter
    (fun g ->
      let gate = C.gate_at circuit g in
      let f = Netlist.Eval.gate_function m gate funcs in
      let size = Bdd.size f in
      if size > max_nodes then
        raise (Blowup { net = C.net_name circuit gate.C.output; nodes = size });
      if size > !max_size then max_size := size;
      funcs.(gate.C.output) <- f)
    (C.topological_order circuit);
  let per_net =
    Array.mapi
      (fun net f ->
        ignore net;
        let p = Bdd.probability f prob in
        let density =
          List.fold_left
            (fun acc pi ->
              let d_pi = Stoch.Signal_stats.density pi_stats.(pi) in
              if d_pi <= 0. then acc
              else
                acc +. (d_pi *. Bdd.probability (Bdd.boolean_difference f pi) prob))
            0. (Bdd.support f)
        in
        Stoch.Signal_stats.make ~prob:p ~density)
      funcs
  in
  { per_net; max_size = !max_size }

let stats t net = t.per_net.(net)
let all_stats t = Array.copy t.per_net
let max_bdd_size t = t.max_size
