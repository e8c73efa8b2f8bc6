(* The repository benchmark.  One run drives one workload through the
   program's public entry points for a fixed window and prints, as its
   last stdout line, one JSON object with the end-to-end metrics (or, with
   --trace 1, the per-layer metrics).  See README.md. *)

let now_ns = Trace.now_ns
let ms_since t0 = float_of_int (now_ns () - t0) /. 1e6

(* ---- the metrics this benchmark defines ----------------------------- *)

(* BENCHMARK.json at the checkout root is the single list of workloads and
   of metric names and units; a run prints the metrics in its order. *)
let spec = lazy (Serve.Jsonr.parse (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all))

let names_units key =
  List.map
    (fun m -> (Daemon.str (Daemon.field "name" m), Daemon.str (Daemon.field "unit" m)))
    (Daemon.items (Daemon.field key (Lazy.force spec)))

let names key = List.map fst (names_units key)

(* ---- one run's bookkeeping ------------------------------------------ *)

type run = {
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;
  mutable lat : float list;  (** ms, timed operations only *)
  mutable setup : float list;  (** s, one per set-up repetition *)
  mutable rates : float list;  (** op/s, one per part of the timed window *)
  mutable rss_mb : float;
  layer : (string, float) Hashtbl.t;
  shapes : (string, float list) Hashtbl.t;  (** timed latencies per input shape *)
}

let fresh () =
  { attempted = 0; failed = 0; wrong = 0; lat = []; setup = []; rates = []; rss_mb = 0.;
    layer = Hashtbl.create 32; shapes = Hashtbl.create 8 }

let set r name v = Hashtbl.replace r.layer name v

(* Attempt one operation: [f ()] returns whether its output was right. *)
let attempt r ~label f =
  r.attempted <- r.attempted + 1;
  match f () with
  | true -> ()
  | false ->
    r.wrong <- r.wrong + 1;
    Printf.eprintf "wrong answer: %s\n%!" label
  | exception e ->
    r.failed <- r.failed + 1;
    Printf.eprintf "failed: %s: %s\n%!" label (Printexc.to_string e)

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else begin
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then sorted.(n - 1) else sorted.(i) +. (frac *. (sorted.(i + 1) -. sorted.(i)))
  end

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  quantile a 0.5

let p99 l =
  let a = Array.of_list l in
  Array.sort compare a;
  quantile a 0.99

let mean l = match l with [] -> 0. | _ -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* Repeat [f] in whole rounds until [seconds] have passed (at least one
   round); the window ends with the last round. *)
let rounds ~seconds f =
  let t0 = now_ns () in
  let t_end = t0 + int_of_float (seconds *. 1e9) in
  let n = ref 0 in
  while !n = 0 || now_ns () < t_end do
    f ();
    incr n
  done;
  ms_since t0 /. 1e3

(* Set-up runs [setup_reps] times in a run: once before the timed window,
   and once at each cut of the window into [setup_reps] equal parts.  The
   host's speed drifts over seconds, so set-up samples taken back to back
   would see one moment of it where the timed operations see the whole
   window; spread out, they see what the operations see.  The median is
   reported. *)
let setup_reps = 15

(* The timed window in [reps] parts with [setup ()] between each two.
   Each part's rate, the operations timed in it over the seconds
   [window part] took, goes to [r.rates]: ops_per_s is their median, so a
   burst of contention on the host that slows one part moves it less than
   it would move the rate of the whole window. *)
let spread_window r ~seconds ~reps ~setup window =
  let part = seconds /. float_of_int reps in
  for rep = 1 to reps do
    if rep > 1 then setup ();
    let ops0 = List.length r.lat in
    let s = window part in
    r.rates <- (float_of_int (List.length r.lat - ops0) /. s) :: r.rates
  done

(* ---- in-process workloads ------------------------------------------- *)

let exact_spec semantics (inp : Gen.input) =
  Serve.Request.make ~semantics ~method_:Eval.Engine.Exact inp.source

let right (inp : Gen.input) (r : Eval.Engine.report) =
  r.outcome = Eval.Engine.Complete
  &&
  match (inp.expect, r.exact) with
  | Gen.Exact s, Some q -> Bigq.Q.to_string q = s
  | Gen.Near v, Some q -> Float.abs (Bigq.Q.to_float q -. v) <= 1e-9
  | _, None -> false

(* The path [probdl run] takes: parse + compile with no cache, execute. *)
let one_shot spec =
  let prepared, _ = Serve.Request.prepare spec in
  Eval.Engine.execute prepared

let gc_words () = let s = Gc.quick_stat () in (s.Gc.minor_words, s.Gc.major_collections)

(* The long-run mass of [event] on an explored chain, solved directly by
   the markov layer (Prop 5.4 when irreducible, Thm 5.5 otherwise). *)
let solve_chain chain event ~start =
  let holds i = Lang.Event.holds event (Markov.Chain.label chain i) in
  let scc = Markov.Scc.of_chain chain in
  let mass pi = Bigq.Q.sum (List.filter_map (fun (s, p) -> if holds s then Some p else None) pi) in
  if Markov.Scc.num_components scc = 1 then
    mass (Array.to_list (Array.mapi (fun i p -> (i, p)) (Markov.Stationary.exact chain)))
  else
    Bigq.Q.sum
      (List.map
         (fun (c, p) ->
           if Bigq.Q.is_zero p then Bigq.Q.zero
           else
             Bigq.Q.mul p
               (mass (Markov.Stationary.exact_on_component chain scc.Markov.Scc.members.(c))))
         (Markov.Absorption.into_closed chain ~start))

(* One traced operation: spans around parse, compile and execute, with the
   program's own stats collected; for forever queries a second root span
   rebuilds the chain and solves it through the markov layer. *)
let traced_op semantics (inp : Gen.input) counts =
  let report =
    Trace.with_span "op" (fun () ->
        Obs.reset ();
        Obs.set_enabled true;
        let parsed = Trace.with_span "lang.parse" (fun () -> Lang.Parser.parse inp.source) in
        let prepared =
          Trace.with_span "eval.prepare" (fun () ->
              Eval.Engine.prepare ~semantics ~method_:Eval.Engine.Exact parsed)
        in
        let report = Trace.with_span "eval.execute" (fun () -> Eval.Engine.execute ~stats:true prepared) in
        Obs.set_enabled false;
        report)
  in
  (match report.stats with
   | Some s ->
     counts "eval.states_per_op" (float_of_int s.states);
     counts "eval.steps_per_op" (float_of_int s.steps);
     counts "eval.draws_per_op" (float_of_int s.draws);
     counts "relational.operator_ticks_per_op"
       (float_of_int (List.fold_left (fun a (_, t, _) -> a + t) 0 s.operators))
   | None -> ());
  let chain_ok =
    match semantics with
    | Eval.Engine.Inflationary -> true
    | Eval.Engine.Noninflationary ->
      Trace.with_span "chain" (fun () ->
          let parsed = Lang.Parser.parse inp.source in
          let event = Option.get parsed.event in
          let query, init =
            Trace.with_span "lang.compile" (fun () ->
                let kernel, init =
                  Lang.Compile.noninflationary_kernel parsed.program
                    (Lang.Parser.database_of_facts parsed.facts)
                in
                ( Lang.Forever.compile ~schema_of:(Lang.Compile.schema_of_database init)
                    (Lang.Forever.make ~kernel ~event),
                  init ))
          in
          let chain =
            Trace.with_span "eval.explore" (fun () -> Eval.Exact_noninflationary.build_chain query init)
          in
          let start = Option.value ~default:0 (Markov.Chain.index chain init) in
          let answer = Trace.with_span "markov.solve" (fun () -> solve_chain chain event ~start) in
          let n = Markov.Chain.num_states chain in
          counts "markov.chain_states_per_op" (float_of_int n);
          counts "markov.transitions_per_op"
            (float_of_int (List.length (Markov.Chain.edges chain)));
          right inp { report with exact = Some answer })
  in
  right inp report && chain_ok

let in_process r ~name ~semantics ~inputs ~seconds ~trace =
  let label (inp : Gen.input) = Printf.sprintf "%s/%s" name inp.label in
  let run_checked inp = attempt r ~label:(label inp) (fun () -> right inp (one_shot (exact_spec semantics inp))) in
  (* Set-up: generate the inputs, then one checked round over all of
     them.  A warm-up of fewer inputs would weigh the shapes otherwise
     than a round does, and the seed moves the cost of some shapes. *)
  let setup () =
    let t0 = now_ns () in
    let inputs = inputs () in
    List.iter run_checked inputs;
    r.setup <- (ms_since t0 /. 1e3) :: r.setup;
    inputs
  in
  let inputs = setup () in
  let timed inp =
    attempt r ~label:(label inp) (fun () ->
        let t0 = now_ns () in
        let report = one_shot (exact_spec semantics inp) in
        let ms = ms_since t0 in
        r.lat <- ms :: r.lat;
        Hashtbl.replace r.shapes inp.label (ms :: (try Hashtbl.find r.shapes inp.label with Not_found -> []));
        right inp report)
  in
  let (w0, c0) = gc_words () in
  let ops0 = List.length r.lat in
  (* A traced run reports no set-up time, and its GC deltas must cover
     the timed operations alone. *)
  spread_window r ~seconds:(if trace then seconds /. 2. else seconds) ~reps:(if trace then 1 else setup_reps)
    ~setup:(fun () -> ignore (setup ()))
    (fun part -> rounds ~seconds:part (fun () -> List.iter timed inputs));
  let (w1, c1) = gc_words () in
  let ops = float_of_int (List.length r.lat - ops0) in
  if trace then begin
    set r "runtime.minor_words_per_op" ((w1 -. w0) /. ops);
    set r "runtime.major_collections_per_op" (float_of_int (c1 - c0) /. ops);
    set r "trace.untraced_op_ms" (median r.lat);
    let sums = Hashtbl.create 8 in
    let counts k v = Hashtbl.replace sums k ((try Hashtbl.find sums k with Not_found -> 0.) +. v) in
    Trace.on := true;
    let traced = ref 0 in
    ignore
      (rounds ~seconds:(seconds /. 2.) (fun () ->
           List.iter
             (fun inp ->
               incr traced;
               attempt r ~label:(label inp) (fun () -> traced_op semantics inp counts))
             inputs));
    Trace.on := false;
    let per_op v = v /. float_of_int !traced in
    Hashtbl.iter (fun k v -> set r k (per_op v)) sums;
    let self = Trace.self_ms () in
    List.iter
      (fun (metric, span) -> set r metric (per_op (self span)))
      [ ("lang.parse_ms", "lang.parse");
        ("eval.prepare_ms", "eval.prepare");
        ("eval.execute_ms", "eval.execute");
        ("lang.compile_ms", "lang.compile");
        ("eval.explore_ms", "eval.explore");
        ("markov.solve_ms", "markov.solve")
      ];
    (* Root self time: inside an operation but in no layer's span. *)
    set r "trace.residual_ms" (per_op (self "op" +. self "chain"));
    set r "trace.op_ms" (median (Trace.durations "op"));
    set r "trace.overhead_ms" (median (Trace.durations "op") -. median r.lat)
  end;
  r.rss_mb <- Daemon.peak_rss_mb "self"

(* ---- daemon workloads ----------------------------------------------- *)

let run_dir = ".bench_run"
let daemon_dir tag = Filename.concat run_dir (Printf.sprintf "%d-%s" (Unix.getpid ()) tag)

let request op fields = Obs.Json.Obj ((("op", Obs.Json.Str op) :: fields))

let snapshot c =
  let m = Daemon.rpc c (request "metrics" [ ("id", Obs.Json.Str "m") ]) in
  let s = Daemon.rpc c (request "stats" [ ("id", Obs.Json.Str "s") ]) in
  (m, s)

(* Deltas of the daemon's own telemetry between two snapshots. *)
let hist_mean (m0, _) (m1, _) name =
  let d key = Daemon.family m1 name key -. Daemon.family m0 name key in
  d "sum_ns" /. 1e6 /. d "count"

let stats_delta (_, s0) (_, s1) k =
  Daemon.num (Daemon.path s1 ("stats" :: k)) -. Daemon.num (Daemon.path s0 ("stats" :: k))

(* Per-layer figures of the request path from two snapshots taken around
   the traced window. *)
let server_layers r before after ~rtt_ms =
  let hist = hist_mean before after in
  let server = hist "probdb_request_seconds" in
  set r "serve.server_ms" server;
  set r "serve.wait_ms" (hist "probdb_request_wait_seconds");
  set r "serve.compile_ms" (hist "probdb_request_compile_seconds");
  set r "serve.eval_ms" (hist "probdb_request_eval_seconds");
  set r "serve.rtt_ms" rtt_ms;
  set r "serve.transport_ms" (rtt_ms -. server);
  set r "trace.residual_ms"
    (server -. hist "probdb_request_wait_seconds" -. hist "probdb_request_compile_seconds"
    -. hist "probdb_request_eval_seconds");
  let gauge name = Daemon.family (fst after) name "value" -. Daemon.family (fst before) name "value" in
  set r "serve.gc_minor_words_per_req" (gauge "probdb_gc_minor_words" /. gauge "probdb_served_total");
  let hits = stats_delta before after [ "plan_cache"; "hits" ]
  and misses = stats_delta before after [ "plan_cache"; "misses" ] in
  set r "serve.plan_cache_hit_ratio" (hits /. (hits +. misses))

(* Counts the daemon reports per request, summed for averaging. *)
let reported r report =
  List.iter
    (fun (metric, key) ->
      Hashtbl.replace r.layer metric
        ((try Hashtbl.find r.layer metric with Not_found -> 0.) +. Daemon.num (Daemon.field key report)))
    [ ("serve.reported_states_per_op", "states");
      ("serve.reported_steps_per_op", "steps");
      ("serve.reported_draws_per_op", "draws") ]

let average r names n = List.iter (fun k -> set r k ((try Hashtbl.find r.layer k with Not_found -> 0.) /. n)) names

(* Work counts of the same requests run in-process with stats on. *)
let in_process_counts r reports =
  let n = float_of_int (List.length reports) in
  let sum f = List.fold_left (fun a (s : Eval.Engine.stats) -> a +. float_of_int (f s)) 0. reports /. n in
  set r "eval.states_per_op" (sum (fun s -> s.states));
  set r "eval.steps_per_op" (sum (fun s -> s.steps));
  set r "eval.draws_per_op" (sum (fun s -> s.draws));
  set r "relational.operator_ticks_per_op"
    (sum (fun s -> List.fold_left (fun a (_, t, _) -> a + t) 0 s.operators))

let stats_of prepared ?seed ?domains () =
  Obs.reset ();
  Obs.set_enabled true;
  let report = Eval.Engine.execute ?seed ?domains ~stats:true prepared in
  Obs.set_enabled false;
  report

(* ---- the write path, measured in serve-hot's traced run ---------------- *)

let churn_eps = 0.05
let churn_names = 16

(* Hoeffding radius at δ = 1e-9 for n samples. *)
let hoeffding n = sqrt (log (2. /. 1e-9) /. (2. *. float_of_int n))

(* probdbd with --state-dir, so every acknowledged load is fsynced to its
   journal.  Each operation loads a new version of one of [churn_names]
   rotating names and estimates it with its own seed: the journal, parse,
   compile and the sharded Eval.Pool sampler run on every operation.  Half
   of [seconds] estimates on one daemon domain, half on two.  Every
   estimate must lie within the Hoeffding radius of its exact answer and,
   after the window, equal an in-process run of the same program and seed
   on one and on two domains, shard table and all. *)
let churn_layers r ~seed ~seconds =
  let op_seed i = ((seed * 7919) + i) land 0x3fffffff in
  (* (op, daemon domains, printed probability, shard table) *)
  let done_ops = ref [] in
  let shards resp =
    let int k s = int_of_float (Daemon.num (Daemon.field k s)) in
    List.map
      (fun s -> (int "shard" s, int "samples" s, int "hits" s))
      (Daemon.items (Daemon.path resp [ "report"; "shards" ]))
  in
  let d = Daemon.start ~dir:(daemon_dir "churn") ~durable:true in
  let c = Daemon.connect d in
  let next = ref 0 in
  (* Load the next version and estimate it on [domains] daemon domains;
     [on_done load_ms estimate_ms report] runs only when both succeeded. *)
  let op ~domains ~on_done =
    let i = !next in
    incr next;
    let inp = Gen.churn_program seed i in
    let name = Printf.sprintf "c%d" (i mod churn_names) in
    attempt r ~label:(Printf.sprintf "churn/op%d" i) (fun () ->
        let t0 = now_ns () in
        let load =
          Daemon.rpc c
            (request "load"
               [ ("id", Obs.Json.Str (Printf.sprintf "l%d" i)); ("name", Obs.Json.Str name); ("source", Obs.Json.Str inp.source) ])
        in
        let t1 = now_ns () in
        let est =
          Daemon.rpc c
            (request "estimate"
               [ ("id", Obs.Json.Str (Printf.sprintf "e%d" i));
                 ("name", Obs.Json.Str name);
                 ("seed", Obs.Json.Int (op_seed i));
                 ("eps", Obs.Json.Float churn_eps);
                 ("domains", Obs.Json.Int domains) ])
        in
        let t2 = now_ns () in
        Daemon.ok load && Daemon.ok est
        && begin
          let report = Daemon.field "report" est in
          on_done (float_of_int (t1 - t0) /. 1e6) (float_of_int (t2 - t1) /. 1e6) report;
          let p = Daemon.num (Daemon.field "probability" report) in
          let n = int_of_string (Daemon.str (Daemon.path report [ "diagnostics"; "samples" ])) in
          done_ops := (i, domains, p, shards est) :: !done_ops;
          Float.abs (p -. inp.value) <= hoeffding n
        end)
  in
  let round ~domains ~on_done () = for _ = 1 to churn_names do op ~domains ~on_done done in
  round ~domains:1 ~on_done:(fun _ _ _ -> ()) ();
  let before = snapshot c in
  let loads = ref [] and ests = ref [] and shard_ms = ref 0. in
  let reported = Hashtbl.create 2 in
  let add k v = Hashtbl.replace reported k ((try Hashtbl.find reported k with Not_found -> 0.) +. v) in
  ignore
    (rounds ~seconds:(seconds /. 2.)
       (round ~domains:1 ~on_done:(fun load_ms est_ms report ->
            loads := load_ms :: !loads;
            ests := est_ms :: !ests;
            add "steps" (Daemon.num (Daemon.field "steps" report));
            List.iter
              (fun s -> shard_ms := !shard_ms +. Daemon.num (Daemon.field "ms" s))
              (Daemon.items (Daemon.field "shards" report)))));
  let after = snapshot c in
  let nf = float_of_int (List.length !ests) in
  let sd = stats_delta before after in
  set r "serve.load_ms" (mean !loads);
  set r "serve.estimate_ms" (mean !ests);
  set r "serve.churn_compile_ms" (hist_mean before after "probdb_request_compile_seconds");
  set r "serve.journal_fsyncs_per_load" (sd [ "journal"; "fsyncs" ] /. nf);
  set r "serve.journal_compactions" (sd [ "journal"; "compactions" ]);
  set r "eval.pool_shard_ms_per_op" (!shard_ms /. nf);
  set r "serve.reported_estimate_steps_per_op" (Hashtbl.find reported "steps" /. nf);
  (* The same operations with two daemon domains per estimate: what
     Eval.Pool's per-request domain spawning costs, in time and in the
     daemon's peak memory. *)
  let hwm0 = Daemon.peak_rss_mb (string_of_int d.Daemon.pid) in
  let d2 = ref [] in
  ignore (rounds ~seconds:(seconds /. 2.) (round ~domains:2 ~on_done:(fun _ est_ms _ -> d2 := est_ms :: !d2)));
  set r "serve.estimate_d2_ms" (median !d2);
  set r "serve.d2_hwm_growth_kib_per_req"
    ((Daemon.peak_rss_mb (string_of_int d.Daemon.pid) -. hwm0) *. 1024. /. float_of_int (List.length !d2));
  Daemon.close c;
  Daemon.stop d;
  let replay_ms = Hashtbl.create 2 in
  let replay (i, daemon_domains, p, daemon_shards) domains =
    let inp = Gen.churn_program seed i in
    (* delta and burn_in: the protocol's defaults for an estimate. *)
    let spec =
      Serve.Request.make ~semantics:Eval.Engine.Inflationary
        ~method_:(Eval.Engine.Sampling { eps = churn_eps; delta = 0.05; burn_in = 200 })
        inp.source
    in
    let prepared, _ = Serve.Request.prepare spec in
    let t0 = now_ns () in
    let report = stats_of prepared ~seed:(op_seed i) ~domains () in
    Hashtbl.replace replay_ms domains (ms_since t0 :: (try Hashtbl.find replay_ms domains with Not_found -> []));
    let local = match report.stats with Some s -> s.shards | None -> [] in
    let same =
      List.map (fun (s : Obs.shard) -> (s.shard, s.samples, s.hits)) local = daemon_shards
      && float_of_string (Printf.sprintf "%.6g" report.probability) = p
    in
    if not same then begin
      r.wrong <- r.wrong + 1;
      Printf.eprintf "churn/op%d: daemon estimate on %d domain(s) differs from the in-process %d-domain run\n%!"
        i daemon_domains domains
    end;
    report
  in
  let d1 = List.map (fun o -> replay o 1) !done_ops in
  List.iter (fun o -> ignore (replay o 2)) !done_ops;
  set r "eval.estimate_d1_ms" (median (Hashtbl.find replay_ms 1));
  set r "eval.estimate_d2_ms" (median (Hashtbl.find replay_ms 2));
  let per_op f =
    let l = List.filter_map (fun (rep : Eval.Engine.report) -> rep.stats) d1 in
    List.fold_left (fun a s -> a +. float_of_int (f s)) 0. l /. float_of_int (List.length l)
  in
  set r "eval.estimate_steps_per_op" (per_op (fun (s : Eval.Engine.stats) -> s.steps))

let tenants = [ "t0"; "t1" ]

(* One connection, one request outstanding: a closed loop.  A second
   connection would give probdbd a second session domain, and on a 2-core
   machine those two domains and the client contend for the cores. *)
let serve_hot r ~seed ~seconds ~trace =
  let programs =
    List.concat_map
      (fun t -> List.mapi (fun j inp -> (t, Printf.sprintf "p%d" j, inp)) (Gen.hot_programs seed t))
      tenants
  in
  let label (t, name, _) = Printf.sprintf "serve-hot/%s/%s" t name in
  let query (t, name, _) =
    request "query" [ ("id", Obs.Json.Str name); ("tenant", Obs.Json.Str t); ("name", Obs.Json.Str name) ]
  in
  let check (_, _, (inp : Gen.input)) resp =
    match inp.expect with
    | Gen.Exact s -> Daemon.ok resp && Daemon.str (Daemon.path resp [ "report"; "exact" ]) = s
    | Gen.Near _ -> false
  in
  let start rep =
    let t0 = now_ns () in
    let d = Daemon.start ~dir:(daemon_dir (string_of_int rep)) ~durable:false in
    let c = Daemon.connect d in
    List.iter
      (fun ((t, name, (inp : Gen.input)) as p) ->
        attempt r ~label:(label p) (fun () ->
            Daemon.ok
              (Daemon.rpc c
                 (request "load"
                    [ ("id", Obs.Json.Str "l");
                      ("tenant", Obs.Json.Str t);
                      ("name", Obs.Json.Str name);
                      ("source", Obs.Json.Str inp.source) ]))))
      programs;
    for _ = 1 to 2 do
      List.iter (fun p -> attempt r ~label:(label p) (fun () -> check p (Daemon.rpc c (query p)))) programs
    done;
    r.setup <- (ms_since t0 /. 1e3) :: r.setup;
    (d, c)
  in
  let d, c = start 0 in
  let reps = ref 0 in
  let setup () =
    incr reps;
    let d, c = start !reps in
    Daemon.close c;
    Daemon.stop d
  in
  let round ~on_reply () =
    List.iter
      (fun p ->
        attempt r ~label:(label p) (fun () ->
            let t0 = now_ns () in
            let resp = Daemon.rpc c (query p) in
            r.lat <- ms_since t0 :: r.lat;
            on_reply resp;
            check p resp))
      programs
  in
  spread_window r ~seconds:(if trace then seconds /. 4. else seconds) ~reps:(if trace then 1 else setup_reps) ~setup
    (fun part -> rounds ~seconds:part (round ~on_reply:ignore));
  if trace then begin
    set r "trace.untraced_op_ms" (median r.lat);
    set r "serve.op_p99_ms" (p99 r.lat);
    let untraced = List.length r.lat in
    let before = snapshot c in
    ignore (rounds ~seconds:(seconds /. 4.) (round ~on_reply:(fun resp -> reported r (Daemon.field "report" resp))));
    let after = snapshot c in
    (* r.lat is newest first: the traced quarter's latencies lead. *)
    let n = List.length r.lat - untraced in
    average r [ "serve.reported_states_per_op"; "serve.reported_steps_per_op"; "serve.reported_draws_per_op" ]
      (float_of_int n);
    let rtts = List.filteri (fun k _ -> k < n) r.lat in
    server_layers r before after ~rtt_ms:(mean rtts);
    set r "trace.op_ms" (median rtts);
    set r "trace.overhead_ms" (median rtts -. median (List.filteri (fun k _ -> k >= n) r.lat));
    in_process_counts r
      (List.filter_map
         (fun (_, _, (inp : Gen.input)) ->
           let prepared, _ = Serve.Request.prepare (exact_spec Eval.Engine.Inflationary inp) in
           (stats_of prepared ()).stats)
         programs)
  end;
  r.rss_mb <- Daemon.peak_rss_mb (string_of_int d.Daemon.pid);
  Daemon.close c;
  Daemon.stop d;
  if trace then churn_layers r ~seed ~seconds:(seconds /. 2.)

(* ---- command line ---------------------------------------------------- *)

let usage () =
  prerr_endline "usage: pbench run --workload W --seed N --seconds S --trace 0|1";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: args ->
    let rec opts acc = function
      | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let opts = opts [] args in
    let get k = try List.assoc k opts with Not_found -> usage () in
    let workload = get "workload" in
    let seed = int_of_string (get "seed") in
    let seconds = float_of_string (get "seconds") in
    let trace = get "trace" = "1" in
    if not (List.mem workload (names "workloads")) then usage ();
    if not (Sys.file_exists run_dir) then Unix.mkdir run_dir 0o755;
    (* A daemon that dies mid-run turns later operations into counted
       failures instead of killing the benchmark. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let r = fresh () in
    (match workload with
     | "exact-worlds" ->
       in_process r ~name:workload ~semantics:Eval.Engine.Inflationary
         ~inputs:(fun () -> Gen.worlds_inputs seed) ~seconds ~trace
     | "exact-chain" ->
       in_process r ~name:workload ~semantics:Eval.Engine.Noninflationary
         ~inputs:(fun () -> Gen.chain_inputs seed) ~seconds ~trace
     | _ -> serve_hot r ~seed ~seconds ~trace);
    let lat = Array.of_list r.lat in
    Array.sort compare lat;
    let e2e =
      [ ("setup_s", median r.setup);
        ("ops_per_s", median r.rates);
        ("latency_p50_ms", quantile lat 0.5);
        ("latency_p90_ms", quantile lat 0.9);
        ("peak_rss_mb", r.rss_mb) ]
    in
    Printf.printf "workload %s seed %d: %d timed operations (samples), %d attempted, %d failed, %d wrong\n"
      workload seed (Array.length lat) r.attempted r.failed r.wrong;
    Printf.printf "  set-up repetitions (s): %s\n"
      (String.concat " " (List.rev_map (Printf.sprintf "%.4f") r.setup));
    (* A traced run's window is split, so its end-to-end figures are not
       comparable; it prints only the per-layer metrics. *)
    if not trace then
      List.iter (fun (n, u) -> Printf.printf "  %-34s %14.4f %s\n" n (List.assoc n e2e) u) (names_units "end_to_end");
    Hashtbl.iter
      (fun shape l -> Printf.printf "  median %-27s %14.4f ms (%d ops)\n" shape (median l) (List.length l))
      r.shapes;
    if trace then begin
      List.iter
        (fun (n, u) ->
          Printf.printf "  %-34s %14.4f %s\n" n (try Hashtbl.find r.layer n with Not_found -> 0.) u)
        (names_units "per_layer");
      let path = Filename.concat run_dir (Printf.sprintf "trace-%s-%d.json" workload seed) in
      Trace.write path;
      Printf.printf "  spans written to %s\n" path
    end;
    (* Obs.Json prints floats to 6 digits; the result line keeps all 17. *)
    let metric n u v = Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u in
    let metrics =
      if trace then
        List.map (fun (n, u) -> metric n u (try Hashtbl.find r.layer n with Not_found -> 0.)) (names_units "per_layer")
      else List.map (fun (n, u) -> metric n u (List.assoc n e2e)) (names_units "end_to_end")
    in
    Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
      (r.wrong = 0) r.attempted r.failed (String.concat ", " metrics)
  | _ -> usage ()
