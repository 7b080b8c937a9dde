type t = Leaf of int | Series of t list | Parallel of t list

type polarity = Nmos | Pmos

let leaf i =
  if i < 0 then invalid_arg "Sp_tree.leaf: negative input index";
  Leaf i

(* Smart constructors flatten one level of same-constructor nesting so
   that [Series [Series [a;b]; c]] and [Series [a;b;c]] — electrically
   identical — get one representation. *)
let series = function
  | [] -> invalid_arg "Sp_tree.series: empty list"
  | [ c ] -> c
  | cs ->
      let flatten c = match c with Series inner -> inner | Leaf _ | Parallel _ -> [ c ] in
      Series (List.concat_map flatten cs)

let parallel = function
  | [] -> invalid_arg "Sp_tree.parallel: empty list"
  | [ c ] -> c
  | cs ->
      let flatten c = match c with Parallel inner -> inner | Leaf _ | Series _ -> [ c ] in
      Parallel (List.concat_map flatten cs)

let rec inputs_multi = function
  | Leaf i -> [ i ]
  | Series cs | Parallel cs -> List.concat_map inputs_multi cs

let inputs t = List.sort_uniq compare (inputs_multi t)

let rec transistor_count = function
  | Leaf _ -> 1
  | Series cs | Parallel cs ->
      List.fold_left (fun acc c -> acc + transistor_count c) 0 cs

let rec internal_node_count = function
  | Leaf _ -> 0
  | Parallel cs ->
      List.fold_left (fun acc c -> acc + internal_node_count c) 0 cs
  | Series cs ->
      List.fold_left
        (fun acc c -> acc + internal_node_count c)
        (List.length cs - 1)
        cs

let rec depth = function
  | Leaf _ -> 1
  | Series cs -> List.fold_left (fun acc c -> acc + depth c) 0 cs
  | Parallel cs -> List.fold_left (fun acc c -> max acc (depth c)) 0 cs

let rec compare a b =
  match (a, b) with
  | Leaf i, Leaf j -> Stdlib.compare i j
  | Leaf _, (Series _ | Parallel _) -> -1
  | (Series _ | Parallel _), Leaf _ -> 1
  | Series _, Parallel _ -> -1
  | Parallel _, Series _ -> 1
  | Series xs, Series ys | Parallel xs, Parallel ys -> compare_lists xs ys

and compare_lists xs ys =
  match (xs, ys) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs, y :: ys ->
      let c = compare x y in
      if c <> 0 then c else compare_lists xs ys

let equal a b = compare a b = 0

let rec canonical = function
  | Leaf _ as l -> l
  | Series cs -> Series (List.map canonical cs)
  | Parallel cs -> Parallel (List.sort compare (List.map canonical cs))

let rec dual = function
  | Leaf _ as l -> l
  | Series cs -> parallel (List.map dual cs)
  | Parallel cs -> series (List.map dual cs)

let conduction m polarity t =
  let device i = match polarity with Nmos -> Bdd.var m i | Pmos -> Bdd.nvar m i in
  let rec go = function
    | Leaf i -> device i
    | Series cs -> Bdd.conj m (List.map go cs)
    | Parallel cs -> Bdd.disj m (List.map go cs)
  in
  go t

let conducts polarity env t =
  let device i = match polarity with Nmos -> env i | Pmos -> not (env i) in
  let rec go = function
    | Leaf i -> device i
    | Series cs -> List.for_all go cs
    | Parallel cs -> List.exists go cs
  in
  go t

let to_string ?(names = fun i -> "x" ^ string_of_int i) t =
  let rec go = function
    | Leaf i -> names i
    | Series cs -> "(" ^ String.concat " . " (List.map go cs) ^ ")"
    | Parallel cs -> "(" ^ String.concat " | " (List.map go cs) ^ ")"
  in
  go t

let pp ppf t = Format.pp_print_string ppf (to_string t)

(* --- reordering enumeration --- *)

let rec permutations = function
  | [] -> [ [] ]
  | xs ->
      List.concat_map
        (fun x ->
          let rest = ref [] and seen = ref false in
          List.iter
            (fun y ->
              if (not !seen) && y == x then seen := true else rest := y :: !rest)
            xs;
          List.map (fun p -> x :: p) (permutations (List.rev !rest)))
        xs

let cartesian lists =
  List.fold_right
    (fun choices acc ->
      List.concat_map (fun c -> List.map (fun rest -> c :: rest) acc) choices)
    lists [ [] ]

let dedup_by_canonical configs =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun c ->
      let key = canonical c in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    configs

let orderings t =
  let rec variants = function
    | Leaf _ as l -> [ l ]
    | Parallel cs -> List.map parallel (cartesian (List.map variants cs))
    | Series cs ->
        let per_child = List.map variants cs in
        List.concat_map
          (fun perm -> List.map series (cartesian perm))
          (permutations per_child)
  in
  dedup_by_canonical (variants t)

let rec factorial n = if n <= 1 then 1 else n * factorial (n - 1)

let count_orderings t =
  let multi = inputs_multi t in
  let distinct = List.length (List.sort_uniq Stdlib.compare multi) = List.length multi in
  if not distinct then List.length (orderings t)
  else
    let rec count = function
      | Leaf _ -> 1
      | Parallel cs -> List.fold_left (fun acc c -> acc * count c) 1 cs
      | Series cs ->
          List.fold_left
            (fun acc c -> acc * count c)
            (factorial (List.length cs))
            cs
    in
    count t

(* --- the paper's pivot algorithm (Fig. 4) --- *)

let swap_adjacent cs k =
  let rec go i = function
    | a :: b :: rest when i = k -> b :: a :: rest
    | a :: rest -> a :: go (i + 1) rest
    | [] -> invalid_arg "Sp_tree.pivot: internal node index out of range"
  in
  go 0 cs

let pivot t k =
  if k < 0 || k >= internal_node_count t then
    invalid_arg "Sp_tree.pivot: internal node index out of range";
  let counter = ref 0 in
  let rec go t =
    match t with
    | Leaf _ -> t
    | Parallel cs -> parallel (List.map go cs)
    | Series cs ->
        let gaps = List.length cs - 1 in
        let base = !counter in
        counter := base + gaps;
        let cs = List.map go cs in
        if k >= base && k < base + gaps then series (swap_adjacent cs (k - base))
        else series cs
  in
  go t

let pivot_search ~pivot ~key ~nodes ?(trace = fun _ _ -> ()) start =
  let visited = Hashtbl.create 16 in
  let found = ref [ start ] in
  Hashtbl.add visited (key start) ();
  (* PIVOTE_AND_SEARCH: pivot on [current], record if new, then recurse on
     every internal node except the one just used (re-pivoting it would
     undo the move and lead back to an already-visited configuration). *)
  let rec search cfg current =
    let cfg = pivot cfg current in
    let k = key cfg in
    if not (Hashtbl.mem visited k) then begin
      Hashtbl.add visited k ();
      found := cfg :: !found;
      trace current cfg;
      for idx = 0 to nodes - 1 do
        if idx <> current then search cfg idx
      done
    end
  in
  for idx = 0 to nodes - 1 do
    search start idx
  done;
  List.rev !found

let pivot_orderings ?trace t =
  pivot_search ~pivot ~key:canonical ~nodes:(internal_node_count t) ?trace t
