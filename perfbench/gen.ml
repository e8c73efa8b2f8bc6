(* Seeded inputs for every workload, each paired with an answer computed
   here in plain OCaml (native-integer closed forms, brute-force world
   counts, float power iteration) — never by the program under test. *)

type expect =
  | Exact of string  (** the exact answer, printed as [Bigq.Q.to_string] would *)
  | Near of float  (** |answer − value| ≤ 1e-9 *)

type input = {
  label : string;  (** shape name, for error messages *)
  source : string;  (** program text handed to the program *)
  expect : expect;
  value : float;  (** the oracle as a float (for Hoeffding checks) *)
}

let rng seed tag = Random.State.make [| seed; Hashtbl.hash tag |]

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let frac n d =
  let g = gcd n d in
  let n = n / g and d = d / g in
  if d = 1 then string_of_int n else Printf.sprintf "%d/%d" n d

let exact n d = (Exact (frac n d), float_of_int n /. float_of_int d)

let rec pow b e = if e = 0 then 1 else b * pow b (e - 1)

(* ---- tuple-independent pc-tables with dyadic probabilities ---------- *)

(* Tuple [i] is present with probability [k.(i)/4], [k.(i)] in 1..3, so a
   world's weight is an integer over 4^n and every answer is an exact
   dyadic rational computable with native ints. *)
let quarter st = 1 + Random.State.int st 3

let prob_text k = match k with 1 -> "1/4" | 2 -> "1/2" | _ -> "3/4"

let pctable facts ks =
  String.concat ""
    (List.mapi
       (fun i fact ->
         Printf.sprintf "var x%d = { true: %s, false: %s }.\n%s when x%d = true.\n" i
           (prob_text ks.(i))
           (prob_text (4 - ks.(i)))
           fact i)
       facts)

(* Sum of world weights (over 4^n) of the worlds where [holds present]. *)
let brute_force ks holds =
  let n = Array.length ks in
  let acc = ref 0 in
  for mask = 0 to (1 lsl n) - 1 do
    let present = Array.init n (fun i -> mask land (1 lsl i) <> 0) in
    if holds present then begin
      let w = ref 1 in
      Array.iteri (fun i p -> w := !w * if p then ks.(i) else 4 - ks.(i)) present;
      acc := !acc + !w
    end
  done;
  !acc

let reach_rules target = Printf.sprintf "R(v0) :- .\nR(Y) :- R(X), edge(X, Y).\n?- R(%s).\n" target

let tuples = 10

(* The uncertain line v0 → … → v10: reachable iff every edge is present. *)
let line st =
  let ks = Array.init tuples (fun _ -> quarter st) in
  let facts = List.init tuples (fun i -> Printf.sprintf "edge(v%d, v%d)" i (i + 1)) in
  let expect, value = exact (Array.fold_left ( * ) 1 ks) (pow 4 tuples) in
  { label = "line"; source = pctable facts ks ^ reach_rules (Printf.sprintf "v%d" tuples); expect; value }

let reachable nodes edges present ~src ~dst =
  let seen = Array.make nodes false in
  let rec go v =
    if not seen.(v) then begin
      seen.(v) <- true;
      List.iteri (fun i (a, b) -> if a = v && present.(i) then go b) edges
    end
  in
  go src;
  seen.(dst)

(* Ten distinct uncertain edges on six nodes, redrawn until v5 is
   reachable from v0 when every edge is present. *)
let rec graph st =
  let nodes = 6 in
  let pairs = List.concat (List.init nodes (fun a -> List.init nodes (fun b -> (a, b)))) in
  let pairs = List.filter (fun (a, b) -> a <> b) pairs in
  let shuffled = List.map (fun p -> (Random.State.bits st, p)) pairs in
  let edges =
    List.filteri (fun i _ -> i < tuples) (List.map snd (List.sort compare shuffled))
  in
  let all = Array.make tuples true in
  if not (reachable nodes edges all ~src:0 ~dst:(nodes - 1)) then graph st
  else begin
    let ks = Array.init tuples (fun _ -> quarter st) in
    let facts = List.map (fun (a, b) -> Printf.sprintf "edge(v%d, v%d)" a b) edges in
    let hits = brute_force ks (fun p -> reachable nodes edges p ~src:0 ~dst:(nodes - 1)) in
    let expect, value = exact hits (pow 4 tuples) in
    { label = "graph"; source = pctable facts ks ^ reach_rules (Printf.sprintf "v%d" (nodes - 1)); expect; value }
  end

(* Hierarchical (safe) query  Hit :- R(X), S(X, Y)  over R(a), R(b) and
   eight S tuples split between a and b.  Independent-project closed form:
   1 − Π_x (1 − p_R(x) · (1 − Π_y (1 − p_S(x, y)))). *)
let hierarchical st =
  let na = 2 + Random.State.int st 5 in
  let s_rows = List.init (tuples - 2) (fun i -> if i < na then ("a", i) else ("b", i)) in
  let facts =
    [ "r(a)"; "r(b)" ] @ List.map (fun (x, i) -> Printf.sprintf "s(%s, y%d)" x i) s_rows
  in
  let ks = Array.init tuples (fun _ -> quarter st) in
  (* Everything over 4^10: per x, P(no S(x, _)) = Π (4 − k) / 4^m. *)
  let miss x r_index =
    let rows = List.filteri (fun _ (x', _) -> x' = x) s_rows in
    let m = List.length rows in
    let none = List.fold_left (fun acc (_, i) -> acc * (4 - ks.(i + 2))) 1 rows in
    (* 1 − p_R (1 − none/4^m), over 4^(m+1) *)
    (pow 4 (m + 1) - (ks.(r_index) * (pow 4 m - none)), m + 1)
  in
  let ma, ea = miss "a" 0 and mb, eb = miss "b" 1 in
  let den = pow 4 (ea + eb) in
  let expect, value = exact (den - (ma * mb)) den in
  let source = pctable facts ks ^ "Hit(yes) :- r(X), s(X, Y).\n?- Hit(yes).\n" in
  { label = "hierarchical"; source; expect; value }

(* The unsafe query  Hit :- R(X), S(X, Y), T(Y)  over three R, three T
   and four distinct S tuples; brute-force world count. *)
let unsafe st =
  let pairs = List.concat (List.init 3 (fun a -> List.init 3 (fun b -> (a, b)))) in
  let shuffled = List.map (fun p -> (Random.State.bits st, p)) pairs in
  let s = List.filteri (fun i _ -> i < 4) (List.map snd (List.sort compare shuffled)) in
  let facts =
    List.init 3 (Printf.sprintf "r(a%d)")
    @ List.init 3 (Printf.sprintf "t(b%d)")
    @ List.map (fun (a, b) -> Printf.sprintf "s(a%d, b%d)" a b) s
  in
  let ks = Array.init tuples (fun _ -> quarter st) in
  let holds p = List.exists (fun (j, (a, b)) -> p.(a) && p.(3 + b) && p.(6 + j)) (List.mapi (fun j e -> (j, e)) s) in
  let expect, value = exact (brute_force ks holds) (pow 4 tuples) in
  let source = pctable facts ks ^ "Hit(yes) :- r(X), s(X, Y), t(Y).\n?- Hit(yes).\n" in
  { label = "unsafe"; source; expect; value }

(* ---- forever queries over chains of 36 to 58 states ------------------ *)

(* The three shapes are sized so that each query costs about the same
   (one cost class); the seed varies what does not change that cost. *)

let walk_rule = "?C(Y) @W :- C(X), e(X, Y, W).\n"

(* Two walkers, each on its own lazy directed 6-cycle (stay and move
   weight 1, so each cycle's matrix is doubly stochastic): 36 chain
   states, and the stationary mass of walker A at any node is 1/6. *)
let cycles st =
  let k = 6 in
  let cycle rel node =
    String.concat ""
      (List.init k (fun i ->
           Printf.sprintf "%s(%s%d, %s%d, 1).\n%s(%s%d, %s%d, 1).\n" rel node i node i rel node i
             node ((i + 1) mod k)))
  in
  let source =
    Printf.sprintf "A(a%d).\nB(b%d).\n" (Random.State.int st k) (Random.State.int st k)
    ^ cycle "ea" "a" ^ cycle "eb" "b"
    ^ "?A(Y) @W :- A(X), ea(X, Y, W).\n?B(Y) @W :- B(X), eb(X, Y, W).\n"
    ^ Printf.sprintf "?- A(a%d).\n" (Random.State.int st k)
  in
  let expect, value = exact 1 k in
  { label = "cycles"; source; expect; value }

(* Float stationary distribution by lazy power iteration π ← (π + πP)/2. *)
let stationary n (edges : (int * int * int) list) =
  let out = Array.make n 0 in
  List.iter (fun (a, _, w) -> out.(a) <- out.(a) + w) edges;
  let pi = ref (Array.make n (1.0 /. float_of_int n)) in
  let change = ref 1.0 and iter = ref 0 in
  while !change > 1e-15 && !iter < 1_000_000 do
    let next = Array.map (fun p -> p /. 2.0) !pi in
    List.iter
      (fun (a, b, w) ->
        next.(b) <- next.(b) +. (!pi.(a) *. float_of_int w /. float_of_int out.(a) /. 2.0))
      edges;
    change := 0.0;
    Array.iteri (fun i p -> change := !change +. Float.abs (p -. !pi.(i))) next;
    pi := next;
    incr iter
  done;
  !pi

(* One walker on 58 nodes: a directed ring (so the chain is irreducible)
   plus a chord from every even node to the node 7 ahead, with random
   weights 1..2. *)
let walk st =
  let n = 58 in
  let w () = 1 + Random.State.int st 2 in
  let ring = List.init n (fun i -> (i, (i + 1) mod n, w ())) in
  let chords = List.init (n / 2) (fun j -> (2 * j, ((2 * j) + 7) mod n, w ())) in
  let edges = ring @ chords in
  let target = Random.State.int st n in
  let source =
    Printf.sprintf "C(v%d).\n" (Random.State.int st n)
    ^ String.concat ""
        (List.map (fun (a, b, w) -> Printf.sprintf "e(v%d, v%d, %d).\n" a b w) edges)
    ^ walk_rule
    ^ Printf.sprintf "?- C(v%d).\n" target
  in
  let pi = stationary n edges in
  { label = "walk"; source; expect = Near pi.(target); value = pi.(target) }

(* Gambler's ruin on n0 … n37 with absorbing ends, up weight u, down
   weight d, (u, d) = (2, 1) or (1, 2): from n_i the walk is absorbed at
   n37 with probability (1 − r^i)/(1 − r^37), r = d/u. *)
let absorbing st =
  let top = 37 in
  let u, d = [| (2, 1); (1, 2) |].(Random.State.int st 2) in
  let i = 5 + Random.State.int st (top - 9) in
  let rows =
    Printf.sprintf "e(n0, n0, 1).\ne(n%d, n%d, 1).\n" top top
    :: List.init (top - 1) (fun j ->
           let j = j + 1 in
           Printf.sprintf "e(n%d, n%d, %d).\ne(n%d, n%d, %d).\n" j (j + 1) u j (j - 1) d)
  in
  let source =
    Printf.sprintf "C(n%d).\n" i ^ String.concat "" rows ^ walk_rule
    ^ Printf.sprintf "?- C(n%d).\n" top
  in
  let expect, value =
    if d < u then
      (* r = 1/2: (1 − 2^-i)/(1 − 2^-top) = 2^(top−i) (2^i − 1) / (2^top − 1) *)
      exact (pow 2 (top - i) * (pow 2 i - 1)) (pow 2 top - 1)
    else (* r = 2 *) exact (pow 2 i - 1) (pow 2 top - 1)
  in
  { label = "absorbing"; source; expect; value }

(* ---- small programs for the daemon ---------------------------------- *)

(* An uncertain line of [n] edges (2^n worlds): answer Π k_i / 4^n. *)
let short_line st n =
  let ks = Array.init n (fun _ -> quarter st) in
  let facts = List.init n (fun i -> Printf.sprintf "edge(v%d, v%d)" i (i + 1)) in
  let expect, value = exact (Array.fold_left ( * ) 1 ks) (pow 4 n) in
  { label = Printf.sprintf "line%d" n; source = pctable facts ks ^ reach_rules (Printf.sprintf "v%d" n); expect; value }

(* ---- the per-workload input sets ------------------------------------ *)

(* Each round runs every input once; several instances per shape keep a
   run's median from hinging on one seeded draw.  The two conjunctive
   shapes cost the same and the two reachability shapes about 1.3x more,
   so the conjunctive ones make up three quarters of a round: the median
   then falls inside one cost class, not in the gap between two. *)
let worlds_inputs seed =
  let st = rng seed "exact-worlds" in
  List.concat
    (List.init 2 (fun _ ->
         [ line st; graph st ] @ List.concat (List.init 3 (fun _ -> [ hierarchical st; unsafe st ]))))

let chain_inputs seed =
  let st = rng seed "exact-chain" in
  List.concat (List.init 3 (fun _ -> [ cycles st; walk st; absorbing st ]))

(* Four programs per tenant, 8 to 32 worlds each. *)
let hot_programs seed tenant =
  let st = rng seed ("serve-hot/" ^ tenant) in
  List.map (short_line st) [ 3; 4; 5; 4 ]

(* The version loaded by churn operation [i]: a 3-edge line with fresh
   probabilities under a version comment, so every load changes the text
   and its estimate misses the plan cache. *)
let churn_program seed i =
  let st = rng (seed + (7919 * i)) "serve-churn" in
  let inp = short_line st 3 in
  { inp with source = Printf.sprintf "%% version %d\n%s" i inp.source }
