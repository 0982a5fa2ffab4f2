(* The benchmark workloads and one measured repetition of each.

   A repetition builds its deployment through the harness's public entry
   points (Harness.Scenario.run_cluster / Harness.Openloop.run and their
   hooks), runs a fixed virtual window, drains, checks the outputs and
   reports end-to-end and per-layer figures. Virtual results and
   allocation counts repeat exactly for a given seed and binary; host
   times do not, which is why run.py repeats a workload in fresh
   processes and reports medians. *)

open Harness

type workload = {
  name : string;
  warmup : float;  (** virtual seconds before the measured window *)
  duration : float;  (** measured virtual seconds *)
  drain : float;  (** virtual seconds after the window for in-flight requests *)
}

(* Windows are fixed in virtual time so that every figure except host
   time repeats for a seed. lookup_read's 1.5 s gives p99 its 1,000
   samples at ~695 requests/s; failover_open's 8 s covers the crash at
   1 s, the 5 s view-change watchdog and the drain of the backlog. *)
let null_closed = { name = "null_closed"; warmup = 0.25; duration = 0.5; drain = 0.5 }

(* The Table-1 default row at BENCH.json's window length; run at seed 1
   it must reproduce that row's virtual TPS. *)
let table1_row = { null_closed with warmup = 0.5; duration = 1.5 }

let lookup_read = { name = "lookup_read"; warmup = 0.25; duration = 1.5; drain = 0.5 }
let failover_open = { name = "failover_open"; warmup = 0.5; duration = 8.0; drain = 1.0 }
let all = [ null_closed; lookup_read; failover_open ]
let find name = List.find_opt (fun w -> w.name = name) all

(* Failover plan, in virtual seconds after the deployment is built. *)
let crash_at = 1.0
let restart_after = 2.5

let cfg () =
  Experiments.with_flags ~dynamic:false ~macs:true ~allbig:true ~batching:true
    (Pbft.Config.default ~f:1)

(* --- inputs from the seed --- *)

(* SplitMix64 finaliser over (seed, a, b): the lookup keys each client
   probes, a pure function of the benchmark seed. *)
let mix seed a b =
  let open Int64 in
  let z = ref (add (mul (of_int seed) 0x9E3779B97F4A7C15L) (of_int ((a * 1_000_003) + b))) in
  z := mul (logxor !z (shift_right_logical !z 30)) 0xBF58476D1CE4E5B9L;
  z := mul (logxor !z (shift_right_logical !z 27)) 0x94D049BB133111EBL;
  to_int (shift_right_logical (logxor !z (shift_right_logical !z 31)) 2)

let lookup_keys = 256
let lookup_rows = 6400

(* Rows with k = key among ids 1..lookup_rows, where k = id mod 256. *)
let expected_probe key =
  let ids = List.filter (fun id -> id mod lookup_keys = key) (List.init lookup_rows (fun i -> i + 1)) in
  (List.length ids, List.fold_left ( + ) 0 ids)

(* --- host counters --- *)

type counters = {
  cpu : float;
  alloc : float;
  minor_gcs : int;
  major_gcs : int;
  promoted : float;
  sha : int;
  pages_read : int;
  rows : int;
  copied : int;
  snapshots : int;
}

let word_bytes = float_of_int (Sys.word_size / 8)

let counters () =
  let g = Gc.quick_stat () in
  {
    cpu = Refclock.cpu ();
    alloc = Gc.allocated_bytes ();
    minor_gcs = g.Gc.minor_collections;
    major_gcs = g.Gc.major_collections;
    promoted = g.Gc.promoted_words *. word_bytes;
    sha = Crypto.Sha256.bytes_hashed ();
    pages_read = Relsql.Database.pages_read_total ();
    rows = Relsql.Database.rows_scanned_total ();
    copied = Statemgr.Pages.bytes_copied ();
    snapshots = Statemgr.Pages.snapshots_taken ();
  }

(* --- one repetition --- *)

type sql = {
  mutable calls : int;
  mutable v_cost : float;
  mutable alloc : float;
  mutable bad : int;
  mutable first_bad : string;
}

type ctx = {
  w : workload;
  seed : int;
  tr : Tracer.t;
  sql : sql;
  mutable setup_span : int;
  mutable run_span : int;
  mutable setup_start : float;
  mutable setup_s : float;
  mutable base : counters;
  mutable base_events : int;
  mutable base_msgs : int;
  mutable base_bytes : int;
  mutable engine : Simnet.Engine.t option;
  (* completion clock: the longest virtual stall with work outstanding *)
  mutable outstanding : int;
  mutable stalled_since : float;  (** last completion, or the arrival that ended an idle spell *)
  mutable max_gap : float;
  mutable checks : (string * bool * string) list;
}

let window_lo c = c.w.warmup
let window_hi c = c.w.warmup +. c.w.duration

let check c name ok detail = c.checks <- (name, ok, detail) :: c.checks

(* The completion clock sees every arrival and completion at its
   virtual time. An outage is a stretch inside the window during which
   requests are outstanding and none completes; idle spells of an open
   loop, with nothing outstanding, are not outages. *)
let stall_until c now =
  let lo = window_lo c in
  if c.outstanding > 0 && now > lo then
    c.max_gap <- Float.max c.max_gap (now -. Float.max c.stalled_since lo)

let note_arrival c now =
  if c.outstanding = 0 then c.stalled_since <- now;
  c.outstanding <- c.outstanding + 1

let note_completion c now =
  if now <= window_hi c then stall_until c now;
  c.outstanding <- c.outstanding - 1;
  c.stalled_since <- now

(* A shed request leaves the outstanding set without being served, so it
   does not end a stall. *)
let note_shed c = c.outstanding <- c.outstanding - 1

let close_clock c = stall_until c (window_hi c)

(* Called from the harness hook, after the deployment is built and
   before the first simulated request: set-up ends here. *)
let on_setup_done c ~engine ~net ~senders ~door_clock =
  c.setup_s <- Refclock.cpu () -. c.setup_start;
  Tracer.span_end c.tr c.setup_span;
  c.engine <- Some engine;
  c.base <- counters ();
  c.base_events <- Simnet.Engine.events engine;
  c.base_msgs <- Simnet.Net.sent_count net;
  c.base_bytes <- Simnet.Net.bytes_sent net;
  c.run_span <- Tracer.span_begin c.tr "run";
  c.tr.Tracer.window <- (window_lo c, window_hi c);
  c.tr.Tracer.engine <- Some engine;
  Tracer.start_runtime_events c.tr;
  (* A pass-through link hook on every sender: in open-loop runs the
     completion clock on the generator's requests and the front door's
     replies, then the tracer's tap when tracing, or else the reference
     clock's tick (the clock would interrupt the traced run's spans, and
     the end-to-end host times come from untraced runs). None of them
     changes what crosses the wire. *)
  let traced = Tracer.enabled c.tr in
  if not traced then Refclock.start ();
  List.iter
    (fun src ->
      let clock =
        door_clock && (src = Webgate.Frontdoor.frontdoor_addr || src >= Openloop.session_addr_base)
      in
      Simnet.Net.set_link_corrupt net ~src ~dst:Simnet.Net.any_addr (fun ~dst ~label wire ->
          (if clock then
             match label with
             | "gw-request" -> note_arrival c (Simnet.Engine.now engine)
             | "gw-reply" -> (
               match Webgate.Frontdoor.decode_reply wire with
               | Some (Webgate.Frontdoor.Done, _, _, _) -> note_completion c (Simnet.Engine.now engine)
               | Some (Webgate.Frontdoor.Shed, _, _, _) -> note_shed c
               | None -> ())
             | _ -> ());
          if traced then Tracer.tap c.tr ~dst ~label wire
          else begin
            Refclock.tick ();
            wire
          end))
    senders

let wrap_sql c ~check_reply (svc : Pbft.Service.t) =
  let make pages ~first_page =
    let inst = svc.Pbft.Service.make pages ~first_page in
    let execute ~op ~client ~timestamp ~nondet ~readonly =
      let outer = Tracer.span_begin c.tr ~parent:c.run_span ~rid:c.sql.calls "service.execute" in
      Tracer.note_sql c.tr op;
      let a0 = Gc.allocated_bytes () in
      let inner = Tracer.span_begin c.tr ~parent:outer ~rid:c.sql.calls "relsql.execute" in
      let reply, cost = inst.Pbft.Service.execute ~op ~client ~timestamp ~nondet ~readonly in
      Tracer.span_end c.tr inner;
      c.sql.alloc <- c.sql.alloc +. (Gc.allocated_bytes () -. a0);
      c.sql.calls <- c.sql.calls + 1;
      c.sql.v_cost <- c.sql.v_cost +. cost;
      if not (check_reply op reply) then begin
        if c.sql.bad = 0 then c.sql.first_bad <- Printf.sprintf "%S -> %S" op reply;
        c.sql.bad <- c.sql.bad + 1
      end;
      Tracer.poll_runtime_events c.tr;
      Tracer.span_end c.tr outer;
      (reply, cost)
    in
    { inst with Pbft.Service.execute }
  in
  { svc with Pbft.Service.make }

(* After the drain, replicas that executed the same prefix must hold the
   same state, and a quorum must have reached the furthest point. *)
let merkle_check c cluster =
  let cfg = Pbft.Cluster.config cluster in
  let reps = Array.to_list (Pbft.Cluster.replicas cluster) in
  let seqs = List.sort_uniq Int.compare (List.map Pbft.Replica.last_executed reps) in
  let root r = Statemgr.Merkle.root (Statemgr.Merkle.build (Pbft.Replica.pages r)) in
  let agree =
    List.for_all
      (fun s ->
        match List.filter (fun r -> Pbft.Replica.last_executed r = s) reps with
        | [] -> true
        | r0 :: rest ->
          let x = root r0 in
          List.for_all (fun r -> String.equal (root r) x) rest)
      seqs
  in
  let top = List.fold_left Int.max 0 seqs in
  let at_top = List.length (List.filter (fun r -> Pbft.Replica.last_executed r = top) reps) in
  check c "merkle_roots_agree" agree
    (Printf.sprintf "executed seqs %s" (String.concat "," (List.map string_of_int seqs)));
  check c "quorum_at_head" (at_top >= (2 * cfg.Pbft.Config.f) + 1)
    (Printf.sprintf "%d replicas at seq %d" at_top top)

type result = {
  e2e : (string * float) list;
  virt : (string * float) list;  (** must repeat exactly for a seed *)
  layers : (string * float) list;
  account : Measure.account;
  run_cpu_s : float;  (** process CPU from set-up end to window end, outside reference chunks *)
  slowdown : float;  (** host speed against the reference clock's nominal host *)
  checks : (string * bool * string) list;
  spans : Measure.span_total list;
}

let labels =
  [
    "request"; "pre-prepare"; "prepare"; "commit"; "reply"; "checkpoint"; "view-change";
    "new-view"; "status"; "session-key"; "key-request"; "fetch-meta"; "state-meta";
    "fetch-pages"; "state-pages"; "fetch-body"; "body"; "fetch-entry"; "entry";
  ]

let div a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

let pct_metric c name sorted_n at p =
  match Measure.percentile ~n:sorted_n ~at p with
  | Ok r -> (1e3 *. r.Measure.value, r.Measure.samples)
  | Error e ->
    check c name false e;
    (0.0, sorted_n)

type run_end = {
  cluster : Pbft.Cluster.t;
  door : Webgate.Frontdoor.t option;
  ops : int;  (** completions from set-up to the end of the window *)
  fin : counters;
  vtps : float;  (** the harness's completions per window second *)
  harness_completed : int;  (** the harness's completions in the window *)
  lat_n : int;  (** requests answered in the window *)
  lat_at : float -> int -> float;  (** percentile -> rank -> seconds *)
  tentative_frac : float;
  account : Measure.account;
  solo : unit -> Relsql.Database.t option;
}

let solo_db ~schema ~init () =
  let db = Relsql.Database.open_db (Relsql.Vfs.in_memory ~acid:true ~seed:1 ()) in
  List.iter (fun s -> ignore (Relsql.Database.exec_exn db s)) (schema :: init);
  Some db

let lookup_init () = Relsql.Pbft_service.lookup_index_sql :: Experiments.lookup_fill_sql ()

(* --- harness specs, before the benchmark's instruments --- *)

let closed_spec w ~seed =
  let cfg = cfg () in
  let s =
    if w.name = "lookup_read" then
      Experiments.indexed_sql_spec ~seed ~duration:w.duration ~indexed:true ~range:false cfg
    else Scenario.default_spec cfg
  in
  { s with Scenario.seed; warmup = w.warmup; duration = w.duration }

let failover_spec w ~seed =
  let d = Openloop.default_spec (cfg ()) in
  {
    d with
    Openloop.seed;
    arrival = Openloop.Poisson 2000.0;
    warmup = w.warmup;
    duration = w.duration;
  }

(* --- closed loop --- *)

let run_closed c =
  let base = closed_spec c.w ~seed:c.seed in
  let issued = ref 0 in
  let latencies = ref [] in
  let issue_time = Array.make base.Scenario.num_clients nan in
  let note_issue ~client =
    let now = Simnet.Engine.now (Option.get c.engine) in
    let prev = issue_time.(client) in
    note_arrival c now;
    if Float.is_finite prev then begin
      note_completion c now;
      if now >= window_lo c && now <= window_hi c then latencies := (now -. prev) :: !latencies
    end;
    issue_time.(client) <- now;
    incr issued
  in
  let spec, solo =
    if c.w.name = "lookup_read" then begin
      let probes = Hashtbl.create lookup_keys in
      let op ~client ~seq =
        note_issue ~client;
        let key = mix c.seed client seq mod lookup_keys in
        let sql = Relsql.Pbft_service.point_select_sql ~key in
        if not (Hashtbl.mem probes sql) then Hashtbl.replace probes sql (expected_probe key);
        sql
      in
      let check_reply op reply =
        match Hashtbl.find_opt probes op with
        | None -> false
        | Some (n, sum) ->
          let want = Printf.sprintf "\n%d | %d\n" n sum in
          let lr = String.length reply and lw = String.length want in
          lr >= lw && String.equal (String.sub reply (lr - lw) lw) want
      in
      let service = wrap_sql c ~check_reply base.Scenario.service in
      ( { base with Scenario.op; service },
        solo_db ~schema:Relsql.Pbft_service.lookup_schema ~init:(lookup_init ()) )
    end
    else
      let op ~client ~seq =
        note_issue ~client;
        base.Scenario.op ~client ~seq
      in
      ( { base with Scenario.op },
        fun () -> None )
  in
  let hook cluster =
    let senders =
      List.init (Pbft.Cluster.config cluster).Pbft.Config.n Fun.id
      @ Array.to_list (Array.map Pbft.Client.addr (Pbft.Cluster.clients cluster))
    in
    on_setup_done c ~engine:(Pbft.Cluster.engine cluster) ~net:(Pbft.Cluster.net cluster) ~senders
      ~door_clock:false
  in
  c.setup_start <- Refclock.cpu ();
  let outcome, cluster = Scenario.run_cluster ~hook spec in
  let fin = counters () in
  Tracer.stop_runtime_events c.tr;
  let ops = Pbft.Cluster.total_completed cluster in
  close_clock c;
  let in_flight = !issued - ops in
  check c "closed_loop_in_flight" (in_flight >= 0 && in_flight <= spec.Scenario.num_clients)
    (Printf.sprintf "%d issued, %d completed at window end" !issued ops);
  Tracer.span_end c.tr c.run_span;
  Tracer.with_span c.tr "drain" (fun () -> Pbft.Cluster.run cluster ~seconds:c.w.drain);
  let completed = Pbft.Cluster.total_completed cluster in
  let sorted = Measure.sorted_of_list !latencies in
  {
    cluster;
    door = None;
    ops;
    fin;
    vtps = outcome.Scenario.tps;
    harness_completed = outcome.Scenario.completed;
    lat_n = Array.length sorted;
    lat_at = (fun _ rank -> sorted.(rank - 1));
    tentative_frac = div (fi outcome.Scenario.tentative_completed) (fi outcome.Scenario.completed);
    account = { Measure.attempted = !issued; completed; shed = 0; outstanding = !issued - completed };
    solo;
  }

(* --- open loop: the failover workload --- *)

let run_failover c =
  let spec = failover_spec c.w ~seed:c.seed in
  let hook cluster _door =
    let engine = Pbft.Cluster.engine cluster in
    let senders =
      (Webgate.Frontdoor.frontdoor_addr :: List.init (Pbft.Cluster.config cluster).Pbft.Config.n Fun.id)
      @ Array.to_list (Array.map Pbft.Client.addr (Pbft.Cluster.clients cluster))
      @ List.init spec.Openloop.gen_conns (fun i -> Openloop.session_addr_base + i)
    in
    on_setup_done c ~engine ~net:(Pbft.Cluster.net cluster) ~senders ~door_clock:true;
    Simnet.Engine.schedule engine ~delay:crash_at (fun () ->
        let primary =
          Array.fold_left
            (fun acc r -> if Pbft.Replica.is_primary r then Pbft.Replica.id r else acc)
            0 (Pbft.Cluster.replicas cluster)
        in
        Pbft.Cluster.crash_replica cluster primary;
        Simnet.Engine.schedule engine ~delay:restart_after (fun () ->
            Pbft.Cluster.restart_replica cluster primary))
  in
  c.setup_start <- Refclock.cpu ();
  let outcome, cluster, door, gen = Openloop.run ~hook spec in
  let fin = counters () in
  Tracer.stop_runtime_events c.tr;
  let ops = Openloop.generator_completed gen in
  close_clock c;
  (* Latencies of the requests answered in the window, before the drain
     adds more: the harness's percentiles were taken at the window end. *)
  let lat_n = Util.Stats.count (Openloop.generator_latency gen) in
  let b = outcome.Openloop.base in
  let pct = [ (50.0, b.Scenario.p50_latency); (99.0, b.Scenario.p99_latency) ] in
  let account () =
    {
      Measure.attempted = Openloop.generator_arrivals gen;
      completed = Openloop.generator_completed gen;
      shed = Openloop.generator_shed gen;
      outstanding = Openloop.generator_outstanding gen;
    }
  in
  check c "arrivals_balance_at_window_end" (Measure.balanced (account ())) "";
  (* The generator runs on the virtual clock, so it is never late: over
     the whole run its arrival count stays within 5 sigma of rate x time. *)
  let expected = Openloop.mean_rate spec.Openloop.arrival *. (c.w.warmup +. c.w.duration) in
  let arrivals = fi (Openloop.generator_arrivals gen) in
  check c "generator_on_schedule"
    (Float.abs (arrivals -. expected) <= 5.0 *. sqrt expected)
    (Printf.sprintf "%.0f arrivals, %.0f expected" arrivals expected);
  Tracer.span_end c.tr c.run_span;
  Tracer.with_span c.tr "drain" (fun () -> Pbft.Cluster.run cluster ~seconds:c.w.drain);
  let account = account () in
  check c "arrivals_balance_after_drain" (Measure.balanced account) "";
  check c "gateway_matches_generator"
    (Webgate.Frontdoor.completed door = account.Measure.completed)
    (Printf.sprintf "door %d, generator %d" (Webgate.Frontdoor.completed door)
       account.Measure.completed);
  let tentative, answered =
    Array.fold_left
      (fun (t, a) cl -> (t + Pbft.Client.tentative_completed cl, a + Pbft.Client.completed cl))
      (0, 0) (Pbft.Cluster.clients cluster)
  in
  {
    cluster;
    door = Some door;
    ops;
    fin;
    vtps = b.Scenario.tps;
    harness_completed = b.Scenario.completed;
    lat_n;
    lat_at = (fun p _ -> List.assoc p pct);
    tentative_frac = div (fi tentative) (fi answered);
    account;
    solo = (fun () -> None);
  }

(* --- report --- *)

let run ?(traced = false) w ~seed =
  let tr = Tracer.create ~enabled:traced in
  let c =
    {
      w;
      seed;
      tr;
      sql = { calls = 0; v_cost = 0.0; alloc = 0.0; bad = 0; first_bad = "" };
      setup_span = -1;
      run_span = -1;
      setup_start = 0.0;
      setup_s = 0.0;
      base = counters ();
      base_events = 0;
      base_msgs = 0;
      base_bytes = 0;
      engine = None;
      outstanding = 0;
      stalled_since = 0.0;
      max_gap = 0.0;
      checks = [];
    }
  in
  c.setup_span <- Tracer.span_begin tr "setup";
  let r = match w.name with "null_closed" | "lookup_read" -> run_closed c | _ -> run_failover c in
  Refclock.stop ();
  let slowdown = Refclock.slowdown () in
  let top_heap_mb = fi (Gc.quick_stat ()).Gc.top_heap_words *. word_bytes /. 1e6 in
  let cluster = r.cluster in
  merkle_check c cluster;
  if w.name = "lookup_read" then
    check c "sql_replies" (c.sql.bad = 0 && c.sql.calls > 0)
      (Printf.sprintf "%d executions, %d wrong%s" c.sql.calls c.sql.bad
         (if c.sql.bad > 0 then ": " ^ c.sql.first_bad else ""));
  let a = r.account in
  check c "arrivals_balance" (Measure.balanced a)
    (Printf.sprintf "%d attempted, %d completed, %d shed, %d outstanding" a.Measure.attempted
       a.Measure.completed a.Measure.shed a.Measure.outstanding);
  let ops = fi r.ops in
  let b = c.base and f = r.fin in
  let engine = Pbft.Cluster.engine cluster and net = Pbft.Cluster.net cluster in
  let p50, p50_n = pct_metric c "p50_samples" r.lat_n (r.lat_at 50.0) 50.0 in
  let p99, p99_n = pct_metric c "p99_samples" r.lat_n (r.lat_at 99.0) 99.0 in
  let e2e =
    [
      ("sim_ops_per_s", div ops (f.cpu -. b.cpu) *. slowdown);
      ("alloc_bytes_per_op", div (f.alloc -. b.alloc) ops);
      ("peak_heap_mb", top_heap_mb);
      ("vtps", r.vtps);
      ("v_p50_ms", p50);
      ("v_p99_ms", p99);
      ("outage_s", c.max_gap);
      ("served_frac", Measure.served_frac a);
    ]
  in
  let reps = Pbft.Cluster.replicas cluster in
  let primary =
    Array.fold_left
      (fun acc r ->
        match acc with
        | Some p when Pbft.Replica.view p >= Pbft.Replica.view r -> acc
        | _ -> if Pbft.Replica.is_primary r then Some r else acc)
      None reps
  in
  let busy r = Simnet.Cpu.utilization (Pbft.Replica.cpu r) ~since:0.0 in
  let sum g = Array.fold_left (fun acc r -> acc + g r) 0 reps in
  let door_int g = match r.door with Some d -> fi (g d) | None -> 0.0 in
  let flushes = door_int Webgate.Frontdoor.flushes_size +. door_int Webgate.Frontdoor.flushes_deadline in
  let counts =
    [
      ("simnet.events_per_op", div (fi (Simnet.Engine.events engine - c.base_events)) ops);
      ("simnet.msgs_per_op", div (fi (Simnet.Net.sent_count net - c.base_msgs)) ops);
      ("simnet.wire_bytes_per_op", div (fi (Simnet.Net.bytes_sent net - c.base_bytes)) ops);
      ("simnet.cpu_busy.primary", match primary with Some p -> busy p | None -> 0.0);
      ( "simnet.cpu_busy.backup_max",
        Array.fold_left
          (fun acc r -> if Some r == primary then acc else Float.max acc (busy r))
          0.0 reps );
      ( "simnet.cpu_queue_peak",
        fi (Array.fold_left (fun acc r -> Int.max acc (Simnet.Cpu.peak_queue_length (Pbft.Replica.cpu r))) 0 reps) );
      ("pbft.view_changes", fi (sum Pbft.Replica.view_changes));
      ( "pbft.retransmissions",
        fi (Array.fold_left (fun acc cl -> acc + Pbft.Client.retransmissions cl) 0 (Pbft.Cluster.clients cluster)) );
      ("pbft.tentative_frac", r.tentative_frac);
      ("relsql.exec_calls_per_op", div (fi c.sql.calls) ops);
      ("relsql.pages_read_per_op", div (fi (f.pages_read - b.pages_read)) ops);
      ("relsql.rows_scanned_per_op", div (fi (f.rows - b.rows)) ops);
      ("relsql.v_exec_ms_per_call", 1e3 *. div c.sql.v_cost (fi c.sql.calls));
      ("statemgr.bytes_copied_per_op", div (fi (f.copied - b.copied)) ops);
      ("statemgr.snapshots_per_op", div (fi (f.snapshots - b.snapshots)) ops);
      ("statemgr.checkpoints_per_kop", 1e3 *. div (fi (sum Pbft.Replica.checkpoints_taken)) ops);
      ("statemgr.rejoin_pages_fetched", fi (sum Pbft.Replica.transfer_pages_fetched));
      ("statemgr.rejoin_pages_full", fi (sum Pbft.Replica.transfer_pages_full));
      ("webgate.ops_per_flush", div (door_int Webgate.Frontdoor.completed) flushes);
      ("webgate.deadline_flush_frac", div (door_int Webgate.Frontdoor.flushes_deadline) flushes);
      ("webgate.queue_peak", door_int Webgate.Frontdoor.queue_peak);
      ("webgate.shed", door_int Webgate.Frontdoor.shed);
      ("webgate.live_sessions", door_int Webgate.Frontdoor.live_sessions);
      ("webgate.session_evictions", door_int Webgate.Frontdoor.session_evictions);
    ]
  in
  let host_counts =
    [
      ("gc.minor_per_kop", 1e3 *. div (fi (f.minor_gcs - b.minor_gcs)) ops);
      ("gc.major_per_kop", 1e3 *. div (fi (f.major_gcs - b.major_gcs)) ops);
      ("gc.promoted_bytes_per_op", div (f.promoted -. b.promoted) ops);
      ("relsql.alloc_bytes_per_call", div c.sql.alloc (fi c.sql.calls));
      (* The tracer's own decodes hash too, so bytes hashed is a host count. *)
      ("crypto.sha256_bytes_per_op", div (fi (f.sha - b.sha)) ops);
    ]
  in
  let traced_layers =
    if not traced then []
    else begin
      let quorum = (2 * (Pbft.Cluster.config cluster).Pbft.Config.f) + 1 in
      let order, agree, reply = Tracer.phases tr ~quorum in
      let rp = Tracer.replay tr ~solo:r.solo in
      let minor_ms, major_ms = Tracer.gc_ms tr in
      let exec_s =
        List.fold_left
          (fun acc (s : Measure.span_total) ->
            if s.Measure.sname = "relsql.execute" then acc +. s.Measure.total_s else acc)
          0.0 (Measure.span_totals (Tracer.spans tr))
      in
      List.map (fun l -> ("pbft.msgs_per_op." ^ l, div (fi (Tracer.label_count tr l)) ops)) labels
      @ [
          ("pbft.batch_ops", Tracer.batch_ops tr);
          ("pbft.v_order_ms", order);
          ("pbft.v_agree_ms", agree);
          ("pbft.v_reply_ms", reply);
          ("crypto.sha256_ns_per_byte", rp.Tracer.sha256_ns_per_byte);
          ("codec.decode_us_per_msg", rp.Tracer.decode_us_per_msg);
          ("codec.encode_us_per_msg", rp.Tracer.encode_us_per_msg);
          ("relsql.exec_us_per_call", 1e6 *. div exec_s (fi c.sql.calls));
          ("relsql.solo_us_per_op", rp.Tracer.solo_us_per_op);
          ("gc.minor_ms_per_kop", 1e3 *. div minor_ms ops);
          ("gc.major_ms_per_kop", 1e3 *. div major_ms ops);
          ("trace.lost_gc_events", fi tr.Tracer.lost_events);
        ]
    end
  in
  let virt =
    List.filter (fun (k, _) -> k <> "sim_ops_per_s" && k <> "alloc_bytes_per_op" && k <> "peak_heap_mb") e2e
    @ [
        ("attempted", fi a.Measure.attempted);
        ("completed", fi a.Measure.completed);
        ("harness_completed", fi r.harness_completed);
        ("p50_samples", fi p50_n);
        ("p99_samples", fi p99_n);
      ]
    @ counts
  in
  let spans = Tracer.spans tr in
  let e2e = ("setup_s", c.setup_s /. slowdown) :: e2e in
  ( {
      e2e;
      virt;
      layers = counts @ host_counts @ traced_layers;
      account = a;
      run_cpu_s = f.cpu -. b.cpu;
      slowdown;
      checks = List.rev c.checks;
      spans = Measure.span_totals spans;
    },
    spans )
