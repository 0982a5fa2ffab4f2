(* Instruments for the traced run. Everything here observes the program
   from outside: host-time spans recorded in the benchmark's own files
   around calls into each layer, pass-through network taps that decode
   what crosses the wire, Runtime_events polling for GC time, and an
   after-the-run replay of sampled datagrams and SQL operations through
   the codec, SHA-256 and a solo database. An untraced run creates a
   disabled tracer whose hooks do nothing. *)

let now () = Unix.gettimeofday ()

(* --- spans --- *)

type t = {
  enabled : bool;
  mutable spans : Measure.span array;
  mutable n_spans : int;
  (* wire tap *)
  mutable engine : Simnet.Engine.t option;
  labels : (string, int ref) Hashtbl.t;  (** datagrams per wire label *)
  req_sent : (int * int, float) Hashtbl.t;  (** (client, request id) -> first send *)
  req_pp : (int * int, float) Hashtbl.t;  (** -> first pre-prepare carrying it *)
  replies : (int * int, float list) Hashtbl.t;  (** -> reply send times, newest first *)
  mutable window : float * float;  (** virtual window whose requests the phases cover *)
  mutable pre_prepares : int;
  mutable batched : int;
  mutable last_wire : string;
  mutable last_msg : Pbft.Message.t option;
  mutable seen : int;
  mutable samples : string list;
  mutable n_samples : int;
  (* SQL operations sampled for the solo replay *)
  mutable sql_ops : string list;
  mutable n_sql_ops : int;
  mutable sql_seen : int;
  (* GC time from Runtime_events *)
  mutable cursor : Runtime_events.cursor option;
  mutable callbacks : Runtime_events.Callbacks.t option;
  mutable minor_ns : int64;
  mutable major_ns : int64;
  mutable minor_open : int64;
  mutable major_open : int64;
  mutable lost_events : int;
}

let create ~enabled =
  {
    enabled;
    spans = [||];
    n_spans = 0;
    engine = None;
    labels = Hashtbl.create 32;
    req_sent = Hashtbl.create 4096;
    req_pp = Hashtbl.create 4096;
    replies = Hashtbl.create 4096;
    window = (0.0, infinity);
    pre_prepares = 0;
    batched = 0;
    last_wire = "";
    last_msg = None;
    seen = 0;
    samples = [];
    n_samples = 0;
    sql_ops = [];
    n_sql_ops = 0;
    sql_seen = 0;
    cursor = None;
    callbacks = None;
    minor_ns = 0L;
    major_ns = 0L;
    minor_open = -1L;
    major_open = -1L;
    lost_events = 0;
  }

let enabled t = t.enabled

(* Open a span; returns its index (-1 when tracing is off). *)
let span_begin t ?(parent = -1) ?(rid = -1) name =
  if not t.enabled then -1
  else begin
    if t.n_spans = Array.length t.spans then begin
      let bigger =
        Array.make (Int.max 64 (2 * t.n_spans))
          { Measure.name = ""; start = 0.0; stop = 0.0; parent = -1; rid = -1 }
      in
      Array.blit t.spans 0 bigger 0 t.n_spans;
      t.spans <- bigger
    end;
    let t0 = now () in
    t.spans.(t.n_spans) <- { Measure.name; start = t0; stop = t0; parent; rid };
    t.n_spans <- t.n_spans + 1;
    t.n_spans - 1
  end

let span_end t i = if i >= 0 then t.spans.(i) <- { (t.spans.(i)) with Measure.stop = now () }
let spans t = Array.sub t.spans 0 t.n_spans

let with_span t ?parent ?rid name f =
  let i = span_begin t ?parent ?rid name in
  Fun.protect ~finally:(fun () -> span_end t i) f

(* --- Runtime_events: minor and major GC time --- *)

let start_runtime_events t =
  if t.enabled then begin
    Runtime_events.start ();
    let open Runtime_events in
    let runtime_begin _domain ts phase =
      let ts = Timestamp.to_int64 ts in
      match phase with
      | EV_MINOR -> t.minor_open <- ts
      | EV_MAJOR_SLICE -> t.major_open <- ts
      | _ -> ()
    in
    let runtime_end _domain ts phase =
      let ts = Timestamp.to_int64 ts in
      match phase with
      | EV_MINOR when t.minor_open >= 0L ->
        t.minor_ns <- Int64.add t.minor_ns (Int64.sub ts t.minor_open);
        t.minor_open <- -1L
      | EV_MAJOR_SLICE when t.major_open >= 0L ->
        t.major_ns <- Int64.add t.major_ns (Int64.sub ts t.major_open);
        t.major_open <- -1L
      | _ -> ()
    in
    let lost_events _domain n = t.lost_events <- t.lost_events + n in
    t.callbacks <- Some (Callbacks.create ~runtime_begin ~runtime_end ~lost_events ());
    t.cursor <- Some (create_cursor None)
  end

let poll_runtime_events t =
  match (t.cursor, t.callbacks) with
  | Some c, Some cb -> ignore (Runtime_events.read_poll c cb None)
  | _ -> ()

let gc_ms t = (Int64.to_float t.minor_ns /. 1e6, Int64.to_float t.major_ns /. 1e6)

let stop_runtime_events t =
  poll_runtime_events t;
  (match t.cursor with Some c -> Runtime_events.free_cursor c | None -> ());
  t.cursor <- None;
  if t.enabled then Runtime_events.pause ()

(* --- wire tap --- *)

let sample_every = 97
let max_samples = 4096

let vnow t = match t.engine with Some e -> Simnet.Engine.now e | None -> 0.0

let in_window t time =
  let lo, hi = t.window in
  time >= lo && time < hi

(* Multicasts hand the same wire string to every destination, so the
   last decode is reused while the string is physically the same. *)
let decode t wire =
  if wire != t.last_wire then begin
    t.last_wire <- wire;
    t.last_msg <- Pbft.Message.decode wire
  end;
  t.last_msg

let note_first tbl key time = if not (Hashtbl.mem tbl key) then Hashtbl.replace tbl key time

let observe t ~label wire =
  let time = vnow t in
  let fresh = wire != t.last_wire in
  match label with
  | "request" -> (
    match decode t wire with
    | Some { Pbft.Message.payload = Request_msg rq; _ } ->
      if in_window t time then note_first t.req_sent (rq.rq_client, rq.rq_id) time
    | _ -> ())
  | "pre-prepare" -> (
    match decode t wire with
    | Some { Pbft.Message.payload = Pre_prepare pp; _ } ->
      if fresh then begin
        t.pre_prepares <- t.pre_prepares + 1;
        t.batched <- t.batched + List.length pp.pp_batch
      end;
      List.iter
        (fun item -> note_first t.req_pp (Pbft.Message.batch_item_client_id item) time)
        pp.pp_batch
    | _ -> ())
  | "reply" -> (
    match decode t wire with
    | Some { Pbft.Message.payload = Reply rp; _ } ->
      let key = (rp.r_client, rp.r_id) in
      if Hashtbl.mem t.req_sent key then
        Hashtbl.replace t.replies key
          (time :: Option.value ~default:[] (Hashtbl.find_opt t.replies key))
    | _ -> ())
  | _ -> ()

let is_pbft_label l = String.length l < 3 || String.sub l 0 3 <> "gw-"

(* The tap installed on every sender address: counts and decodes what it
   sees and returns the payload unchanged, so the simulation carries on
   exactly as without it. *)
let tap t ~dst:_ ~label wire =
  (match Hashtbl.find_opt t.labels label with
  | Some r -> incr r
  | None -> Hashtbl.replace t.labels label (ref 1));
  observe t ~label wire;
  if is_pbft_label label then begin
    t.seen <- t.seen + 1;
    if t.seen mod sample_every = 0 && t.n_samples < max_samples then begin
      t.samples <- wire :: t.samples;
      t.n_samples <- t.n_samples + 1
    end
  end;
  if t.seen land 255 = 0 then poll_runtime_events t;
  wire

let label_count t label = match Hashtbl.find_opt t.labels label with Some r -> !r | None -> 0

(* Per-phase virtual time of the requests sent inside the window:
   order = client send -> first pre-prepare carrying the request,
   agree = that pre-prepare -> first reply sent (prepare, commit, execute),
   reply = first reply -> the [quorum]-th reply sent.
   Read-only requests skip ordering and contribute to [reply] only.
   Medians in milliseconds. *)
let phases t ~quorum =
  let order = ref [] and agree = ref [] and reply = ref [] in
  Hashtbl.iter
    (fun key sent ->
      let replies = List.rev (Option.value ~default:[] (Hashtbl.find_opt t.replies key)) in
      let first = match replies with r :: _ -> Some r | [] -> None in
      let nth = List.nth_opt replies (quorum - 1) in
      (match (Hashtbl.find_opt t.req_pp key, first) with
      | Some pp, Some r ->
        order := (pp -. sent) :: !order;
        agree := (r -. pp) :: !agree
      | _ -> ());
      match (first, nth) with Some r, Some q -> reply := (q -. r) :: !reply | _ -> ())
    t.req_sent;
  let med xs = if xs = [] then 0.0 else 1e3 *. Measure.median xs in
  (med !order, med !agree, med !reply)

let batch_ops t =
  if t.pre_prepares = 0 then 0.0 else float_of_int t.batched /. float_of_int t.pre_prepares

(* --- SQL sampling --- *)

let sql_every = 7
let max_sql = 512

let note_sql t op =
  if t.enabled then begin
    t.sql_seen <- t.sql_seen + 1;
    if t.sql_seen mod sql_every = 0 && t.n_sql_ops < max_sql then begin
      t.sql_ops <- op :: t.sql_ops;
      t.n_sql_ops <- t.n_sql_ops + 1
    end
  end

(* --- replay --- *)

type replay = {
  decode_us_per_msg : float;
  encode_us_per_msg : float;
  sha256_ns_per_byte : float;
  solo_us_per_op : float;
}

(* A fresh copy defeats the codec's physical-equality memo tables, so
   every replayed decode does the full work. *)
let copy s = Bytes.to_string (Bytes.of_string s)

let timed t ~parent name f =
  let i = span_begin t ~parent name in
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  span_end t i;
  (r, dt)

(* [solo] builds the single-node database the sampled SQL runs against,
   or [None] when the workload issues no SQL. *)
let replay t ~solo =
  let root = span_begin t "replay" in
  let samples = Array.of_list (List.rev_map copy t.samples) in
  let n = Array.length samples in
  let decoded, dec_s =
    timed t ~parent:root "replay.codec.decode" (fun () -> Array.map Pbft.Message.decode samples)
  in
  (* The codec memoizes the last 64 payloads it saw; encoding the
     messages decoded earliest keeps the replay out of that memo. *)
  let to_encode =
    Array.to_list (Array.sub decoded 0 (Int.max 0 (n - 64))) |> List.filter_map Fun.id
  in
  let _, enc_s =
    timed t ~parent:root "replay.codec.encode" (fun () ->
        List.iter (fun m -> ignore (Pbft.Message.encode m)) to_encode)
  in
  let bytes = Array.fold_left (fun acc s -> acc + String.length s) 0 samples in
  let _, sha_s =
    timed t ~parent:root "replay.sha256" (fun () ->
        Array.iter (fun s -> ignore (Crypto.Sha256.digest s)) samples)
  in
  let ops = List.rev t.sql_ops in
  let solo_us =
    match (solo (), ops) with
    | Some db, _ :: _ ->
      let _, s =
        timed t ~parent:root "replay.relsql.solo" (fun () ->
            List.iter (fun op -> ignore (Relsql.Database.exec db op)) ops)
      in
      1e6 *. s /. float_of_int (List.length ops)
    | _ -> 0.0
  in
  span_end t root;
  let per x k = if k = 0 then 0.0 else x /. float_of_int k in
  {
    decode_us_per_msg = 1e6 *. per dec_s n;
    encode_us_per_msg = 1e6 *. per enc_s (List.length to_encode);
    sha256_ns_per_byte = 1e9 *. per sha_s bytes;
    solo_us_per_op = solo_us;
  }
