(* Pure measurement logic shared by every workload: tail percentiles
   with a sample-count guard, span self time, and failure accounting.
   Kept free of the simulator so the benchmark's own tests exercise it
   directly. *)

(* --- percentiles --- *)

type pct = { value : float; samples : int; beyond : int }

let min_beyond = 10

(* Nearest-rank percentile, the rule Util.Stats uses: the value of rank
   ceil(p/100 * n) among [n] sorted samples, fetched with [at rank]
   (1-based). A tail percentile is only meaningful when enough samples
   lie beyond it; with fewer than [min_beyond] it is one or two outliers,
   so it is refused. *)
let percentile ~n ~at p =
  if n = 0 then Error "no samples"
  else begin
    let rank = Int.max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int n))) in
    let beyond = n - rank in
    if beyond < min_beyond then
      Error (Printf.sprintf "p%g over %d samples has %d beyond it (< %d)" p n beyond min_beyond)
    else Ok { value = at rank; samples = n; beyond }
  end

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match sorted_of_list xs with
  | [||] -> nan
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* --- spans --- *)

type span = {
  name : string;
  start : float;  (** host seconds *)
  stop : float;
  parent : int;  (** index of the enclosing span, -1 for a root *)
  rid : int;  (** request id the span served, -1 when it served none *)
}

(* Total length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* Self time of every span: its duration minus the part of it that its
   children cover. Children may overlap each other or spill past the
   parent; only the covered share of the parent's own interval counts. *)
let self_times (spans : span array) =
  let kids = Array.make (Array.length spans) [] in
  Array.iteri
    (fun i s -> if s.parent >= 0 then kids.(s.parent) <- (spans.(i).start, spans.(i).stop) :: kids.(s.parent))
    spans;
  Array.mapi
    (fun i s -> Float.max 0.0 (s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop kids.(i)))
    spans

type span_total = { sname : string; count : int; total_s : float; self_s : float }

(* Per-name totals, in order of first appearance. *)
let span_totals spans =
  let self = self_times spans in
  let order = ref [] and tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let c, t, st =
        match Hashtbl.find_opt tbl s.name with
        | Some v -> v
        | None ->
          order := s.name :: !order;
          (0, 0.0, 0.0)
      in
      Hashtbl.replace tbl s.name (c + 1, t +. (s.stop -. s.start), st +. self.(i)))
    spans;
  List.rev_map
    (fun name ->
      let count, total_s, self_s = Hashtbl.find tbl name in
      { sname = name; count; total_s; self_s })
    !order

(* --- failure accounting --- *)

type account = {
  attempted : int;  (** requests the workload issued *)
  completed : int;  (** answered with a result *)
  shed : int;  (** refused by admission control *)
  outstanding : int;  (** neither answered nor refused yet *)
}

(* Every issued request is in exactly one bucket. *)
let balanced a = a.attempted = a.completed + a.shed + a.outstanding

(* After the drain, whatever is still outstanding has failed. *)
let failed a = a.shed + a.outstanding

let failed_frac a =
  if a.attempted = 0 then 0.0 else float_of_int (failed a) /. float_of_int a.attempted

(* The share of attempted requests answered with a result: 1 - failed_frac
   for a balanced account. Unlike failed_frac it is never 0 on a workload
   that serves anything, so it can carry a relative bound. *)
let served_frac a =
  if a.attempted = 0 then 0.0 else float_of_int a.completed /. float_of_int a.attempted
