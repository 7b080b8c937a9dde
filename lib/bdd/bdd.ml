type t = { tag : int; mgr : manager; desc : desc }

and desc = Const of bool | Node of { var : int; lo : t; hi : t }

and manager = {
  mutable next_tag : int;
  unique : (int * int * int, t) Hashtbl.t; (* (var, lo.tag, hi.tag) *)
  ite_cache : (int * int * int, t) Hashtbl.t;
  m_zero : t;
  m_one : t;
}

let c_node_alloc = Obs.counter "bdd.node_alloc"
let c_unique_hit = Obs.counter "bdd.unique_hit"
let c_memo_hit = Obs.counter "bdd.memo_hit"
let c_memo_miss = Obs.counter "bdd.memo_miss"

let manager ?(cache_size = 1024) () =
  let rec m =
    {
      next_tag = 2;
      unique = Hashtbl.create cache_size;
      ite_cache = Hashtbl.create cache_size;
      m_zero = zero;
      m_one = one;
    }
  and zero = { tag = 0; mgr = m; desc = Const false }
  and one = { tag = 1; mgr = m; desc = Const true } in
  m

let node_count m = Hashtbl.length m.unique

let zero m = m.m_zero
let one m = m.m_one

let same_mgr a b =
  if a.mgr != b.mgr then invalid_arg "Bdd: mixing nodes from two managers"

(* Hash-consing constructor; guarantees reducedness and canonicity. *)
let mk m var lo hi =
  if lo == hi then lo
  else
    let key = (var, lo.tag, hi.tag) in
    match Hashtbl.find_opt m.unique key with
    | Some n ->
        Obs.incr c_unique_hit;
        n
    | None ->
        Obs.incr c_node_alloc;
        let n = { tag = m.next_tag; mgr = m; desc = Node { var; lo; hi } } in
        m.next_tag <- m.next_tag + 1;
        Hashtbl.add m.unique key n;
        n

let var m i =
  if i < 0 then invalid_arg "Bdd.var: negative index";
  mk m i m.m_zero m.m_one

let nvar m i =
  if i < 0 then invalid_arg "Bdd.nvar: negative index";
  mk m i m.m_one m.m_zero

let top_var t = match t.desc with Const _ -> None | Node n -> Some n.var

(* Cofactors of [t] with respect to variable [v], assuming [v] is no
   deeper than [t]'s root (i.e. v <= root var). *)
let cofactors t v =
  match t.desc with
  | Node n when n.var = v -> (n.lo, n.hi)
  | Const _ | Node _ -> (t, t)

let rec ite f g h =
  same_mgr f g;
  same_mgr g h;
  let m = f.mgr in
  match f.desc with
  | Const true -> g
  | Const false -> h
  | Node _ ->
      if g == h then g
      else if g == m.m_one && h == m.m_zero then f
      else
        let key = (f.tag, g.tag, h.tag) in
        begin match Hashtbl.find_opt m.ite_cache key with
        | Some r ->
            Obs.incr c_memo_hit;
            r
        | None ->
            Obs.incr c_memo_miss;
            let top acc t =
              match top_var t with Some v -> min acc v | None -> acc
            in
            let v = top (top (top max_int f) g) h in
            let f0, f1 = cofactors f v in
            let g0, g1 = cofactors g v in
            let h0, h1 = cofactors h v in
            let r = mk m v (ite f0 g0 h0) (ite f1 g1 h1) in
            Hashtbl.add m.ite_cache key r;
            r
        end

let not_ a = ite a a.mgr.m_zero a.mgr.m_one
let ( &&& ) a b = ite a b a.mgr.m_zero
let ( ||| ) a b = ite a a.mgr.m_one b
let xor a b = ite a (not_ b) b
let xnor a b = ite a b (not_ b)
let imply a b = ite a b a.mgr.m_one

let conj m fs = List.fold_left ( &&& ) m.m_one fs
let disj m fs = List.fold_left ( ||| ) m.m_zero fs

let equal a b =
  same_mgr a b;
  a == b

let is_zero t = t == t.mgr.m_zero
let is_one t = t == t.mgr.m_one

let size t =
  let seen = Hashtbl.create 64 in
  let rec go t =
    match t.desc with
    | Const _ -> ()
    | Node n ->
        if not (Hashtbl.mem seen t.tag) then begin
          Hashtbl.add seen t.tag ();
          go n.lo;
          go n.hi
        end
  in
  go t;
  Hashtbl.length seen

let support t =
  let vars = Hashtbl.create 16 in
  let seen = Hashtbl.create 64 in
  let rec go t =
    match t.desc with
    | Const _ -> ()
    | Node n ->
        if not (Hashtbl.mem seen t.tag) then begin
          Hashtbl.add seen t.tag ();
          Hashtbl.replace vars n.var ();
          go n.lo;
          go n.hi
        end
  in
  go t;
  List.sort compare (Hashtbl.fold (fun v () acc -> v :: acc) vars [])

let restrict t i b =
  let memo = Hashtbl.create 64 in
  let rec go t =
    match t.desc with
    | Const _ -> t
    | Node n ->
        if n.var > i then t
        else if n.var = i then if b then n.hi else n.lo
        else begin
          match Hashtbl.find_opt memo t.tag with
          | Some r -> r
          | None ->
              let r = mk t.mgr n.var (go n.lo) (go n.hi) in
              Hashtbl.add memo t.tag r;
              r
        end
  in
  go t

let compose f i g =
  same_mgr f g;
  let memo = Hashtbl.create 64 in
  let rec go f =
    match f.desc with
    | Const _ -> f
    | Node n ->
        if n.var > i then f
        else if n.var = i then ite g n.hi n.lo
        else begin
          match Hashtbl.find_opt memo f.tag with
          | Some r -> r
          | None ->
              (* The substituted subtrees may climb above [n.var] in the
                 order, so rebuild with ite on the variable itself. *)
              let r = ite (var f.mgr n.var) (go n.hi) (go n.lo) in
              Hashtbl.add memo f.tag r;
              r
        end
  in
  go f

let exists f i = restrict f i false ||| restrict f i true
let forall f i = restrict f i false &&& restrict f i true
let boolean_difference f i = xor (restrict f i false) (restrict f i true)

let rec eval t env =
  match t.desc with
  | Const b -> b
  | Node n -> if env n.var then eval n.hi env else eval n.lo env

let probability t p =
  let memo = Hashtbl.create 64 in
  let rec go t =
    match t.desc with
    | Const b -> if b then 1. else 0.
    | Node n -> begin
        match Hashtbl.find_opt memo t.tag with
        | Some r -> r
        | None ->
            let pv = p n.var in
            if pv < 0. || pv > 1. || not (Float.is_finite pv) then
              invalid_arg "Bdd.probability: variable probability outside [0,1]";
            let r = (pv *. go n.hi) +. ((1. -. pv) *. go n.lo) in
            Hashtbl.add memo t.tag r;
            r
      end
  in
  go t

let sat_count t ~nvars =
  List.iter
    (fun v ->
      if v >= nvars then invalid_arg "Bdd.sat_count: support exceeds nvars")
    (support t);
  probability t (fun _ -> 0.5) *. (2. ** float_of_int nvars)

let fold_paths t ~init ~f =
  let rec go t cube acc =
    match t.desc with
    | Const false -> acc
    | Const true -> f acc (List.rev cube)
    | Node n -> go n.hi ((n.var, true) :: cube) (go n.lo ((n.var, false) :: cube) acc)
  in
  go t [] init

let any_sat t =
  let exception Found of (int * bool) list in
  try
    fold_paths t ~init:() ~f:(fun () cube -> raise (Found cube));
    None
  with Found cube -> Some cube

let to_string ~names t =
  if is_zero t then "0"
  else if is_one t then "1"
  else
    let cube_to_string cube =
      String.concat "."
        (List.map (fun (v, b) -> names v ^ if b then "" else "'") cube)
    in
    let cubes = fold_paths t ~init:[] ~f:(fun acc c -> cube_to_string c :: acc) in
    String.concat " + " (List.rev cubes)
