(* Tests for the benchmark's own logic: span self time, the percentile
   sample rule, failure accounting, the reference clock, and that the
   traced run's pass-through tap leaves the simulation unchanged. *)

open Perfbench_core

let span ?(parent = -1) name start stop = { Measure.name; start; stop; parent; rid = -1 }

let test_self_time () =
  let spans =
    [|
      span "root" 0.0 10.0;
      (* two children overlapping each other, one spilling past the end *)
      span ~parent:0 "a" 1.0 3.0;
      span ~parent:0 "b" 2.0 5.0;
      span ~parent:0 "c" 8.0 12.0;
      span ~parent:2 "b.1" 2.5 4.0;
    |]
  in
  let self = Measure.self_times spans in
  let eq = Alcotest.(check (float 1e-9)) in
  eq "root minus the union [1,5] and [8,10]" 4.0 self.(0);
  eq "leaf keeps its duration" 2.0 self.(1);
  eq "b minus its child" 1.5 self.(2);
  eq "c" 4.0 self.(3);
  eq "b.1" 1.5 self.(4);
  let totals = Measure.span_totals spans in
  Alcotest.(check (list string)) "first-appearance order" [ "root"; "a"; "b"; "c"; "b.1" ]
    (List.map (fun t -> t.Measure.sname) totals)

let test_percentile_rule () =
  let sorted n = Array.init n float_of_int in
  let pct n p =
    let a = sorted n in
    Measure.percentile ~n ~at:(fun rank -> a.(rank - 1)) p
  in
  (match pct 999 99.0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "p99 over 999 samples has only 9 beyond it");
  (match pct 1000 99.0 with
  | Ok r ->
    Alcotest.(check int) "ten beyond" 10 r.Measure.beyond;
    Alcotest.(check (float 0.0)) "nearest rank 990" 989.0 r.Measure.value
  | Error e -> Alcotest.fail e);
  (match pct 19 50.0 with Error _ -> () | Ok _ -> Alcotest.fail "p50 of 19 has 9 beyond");
  (match pct 20 50.0 with
  | Ok r -> Alcotest.(check (float 0.0)) "p50 of 0..19" 9.0 r.Measure.value
  | Error e -> Alcotest.fail e);
  match pct 0 50.0 with Error _ -> () | Ok _ -> Alcotest.fail "no samples"

let test_accounting () =
  let a = { Measure.attempted = 100; completed = 90; shed = 6; outstanding = 4 } in
  Alcotest.(check bool) "balanced" true (Measure.balanced a);
  Alcotest.(check int) "shed and unanswered fail" 10 (Measure.failed a);
  Alcotest.(check (float 1e-12)) "fraction of attempted" 0.1 (Measure.failed_frac a);
  Alcotest.(check (float 1e-12)) "served is the complement" 0.9 (Measure.served_frac a);
  Alcotest.(check bool) "a lost request unbalances" false
    (Measure.balanced { a with Measure.completed = 89 });
  Alcotest.(check (float 0.0)) "nothing attempted" 0.0
    (Measure.failed_frac { Measure.attempted = 0; completed = 0; shed = 0; outstanding = 0 })

(* A chunk must not allocate, or allocation counts would depend on how
   many chunks the host's speed let run. *)
let test_refclock () =
  Alcotest.(check (float 0.0)) "no chunk yet" 1.0 (Refclock.slowdown ());
  let w0 = Gc.minor_words () in
  Refclock.chunk ();
  let w1 = Gc.minor_words () in
  Alcotest.(check (float 0.0)) "a chunk allocates nothing" 0.0 (w1 -. w0);
  Alcotest.(check bool) "slowdown from the timed chunk" true (Refclock.slowdown () > 0.0)

(* The untraced run carries the reference clock's tick and the traced run
   the tracer's tap; both must match a harness run with no hook at all. *)
let test_tap_is_transparent () =
  let w = { Workloads.null_closed with Workloads.warmup = 0.05; duration = 0.15; drain = 0.1 } in
  let bare = Harness.Scenario.run (Workloads.closed_spec w ~seed:7) in
  let plain, _ = Workloads.run w ~seed:7 in
  let traced, _ = Workloads.run ~traced:true w ~seed:7 in
  let failed r = List.filter (fun (_, ok, _) -> not ok) r.Workloads.checks in
  Alcotest.(check int) "untraced checks pass" 0 (List.length (failed plain));
  Alcotest.(check int) "traced checks pass" 0 (List.length (failed traced));
  let get r k = List.assoc k r.Workloads.virt in
  Alcotest.(check bool) "requests completed" true (get plain "completed" > 1000.0);
  Alcotest.(check (float 0.0)) "window completions as without a hook"
    (float_of_int bare.Harness.Scenario.completed) (get plain "harness_completed");
  Alcotest.(check (float 0.0)) "vtps as without a hook" bare.Harness.Scenario.tps (get plain "vtps");
  List.iter
    (fun (k, v) -> Alcotest.(check (float 0.0)) k v (get traced k))
    plain.Workloads.virt;
  Alcotest.(check bool) "the tap saw pre-prepares" true
    (List.assoc "pbft.msgs_per_op.pre-prepare" traced.Workloads.layers > 0.0)

let () =
  Alcotest.run "perfbench"
    [
      ( "measure",
        [
          Alcotest.test_case "span self time subtracts child overlap" `Quick test_self_time;
          Alcotest.test_case "percentile needs 10 samples beyond" `Quick test_percentile_rule;
          Alcotest.test_case "failure accounting" `Quick test_accounting;
          Alcotest.test_case "reference chunk allocates nothing" `Quick test_refclock;
        ] );
      ( "tap",
        [ Alcotest.test_case "null_closed identical with and without tap" `Slow test_tap_is_transparent ] );
    ]
