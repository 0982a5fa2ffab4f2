(* One measured repetition of one workload, as a JSON line on stdout.
   run.py starts a fresh process per repetition (so GC and heap counters
   belong to that run alone), repeats for the requested host time and
   reports medians.

     bench.exe --workload NAME --seed N [--trace] [--spans-out FILE]
     bench.exe --table1-check

   --table1-check runs the Table-1 default row at its BENCH.json window
   (seed 1) and prints its virtual TPS, window completions and the
   pinned-format trace digest for run.py to compare with BENCH.json. *)

let usage () =
  prerr_endline
    ("usage: bench.exe --workload {"
    ^ String.concat "," (List.map (fun w -> w.Perfbench_core.Workloads.name) Perfbench_core.Workloads.all)
    ^ "} --seed N [--trace] [--spans-out FILE]");
  exit 2

let () =
  let open Perfbench_core in
  let open Webgate.Json in
  let workload = ref None and seed = ref None and traced = ref false and spans_out = ref None in
  let rec parse = function
    | "--workload" :: w :: rest ->
      (match Workloads.find w with
      | Some w -> workload := Some w
      | None ->
        Printf.eprintf "unknown workload %S\n" w;
        usage ());
      parse rest
    | "--seed" :: s :: rest ->
      (match int_of_string_opt s with Some s -> seed := Some s | None -> usage ());
      parse rest
    | "--trace" :: rest ->
      traced := true;
      parse rest
    | [ "--table1-check" ] ->
      let r, _ = Workloads.run Workloads.table1_row ~seed:1 in
      let get k = List.assoc k r.Workloads.virt in
      print_endline
        (Webgate.Json.print
           (Obj
              [
                ("vtps", Num (get "vtps"));
                ("completed", Num (get "harness_completed"));
                ("trace_digest", Str (Harness.Hostbench.trace_digest ()));
              ]));
      exit 0
    | "--spans-out" :: f :: rest ->
      spans_out := Some f;
      parse rest
    | [] -> ()
    | arg :: _ ->
      Printf.eprintf "unknown argument %S\n" arg;
      usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w, seed = match (!workload, !seed) with Some w, Some s -> (w, s) | _ -> usage () in
  let r, spans = Workloads.run ~traced:!traced w ~seed in
  let obj kvs = Obj (List.map (fun (k, v) -> (k, Num v)) kvs) in
  let a = r.Workloads.account in
  let doc =
    Obj
      [
        ("workload", Str w.Workloads.name);
        ("seed", Num (float_of_int seed));
        ("traced", Bool !traced);
        ("run_cpu_s", Num r.Workloads.run_cpu_s);
        ("slowdown", Num r.Workloads.slowdown);
        ("e2e", obj r.Workloads.e2e);
        ("virtual", obj r.Workloads.virt);
        ("layers", obj r.Workloads.layers);
        ( "account",
          obj
            [
              ("attempted", float_of_int a.Measure.attempted);
              ("completed", float_of_int a.Measure.completed);
              ("shed", float_of_int a.Measure.shed);
              ("outstanding", float_of_int a.Measure.outstanding);
              ("failed", float_of_int (Measure.failed a));
              ("failed_frac", Measure.failed_frac a);
            ] );
        ( "checks",
          Arr
            (List.map
               (fun (name, ok, detail) ->
                 Obj [ ("name", Str name); ("ok", Bool ok); ("detail", Str detail) ])
               r.Workloads.checks) );
        ( "spans",
          Arr
            (List.map
               (fun (s : Measure.span_total) ->
                 Obj
                   [
                     ("name", Str s.Measure.sname);
                     ("count", Num (float_of_int s.Measure.count));
                     ("total_ms", Num (1e3 *. s.Measure.total_s));
                     ("self_ms", Num (1e3 *. s.Measure.self_s));
                   ])
               r.Workloads.spans) );
      ]
  in
  (match !spans_out with
  | None -> ()
  | Some file ->
    let self = Measure.self_times spans in
    Out_channel.with_open_text file (fun oc ->
        Array.iteri
          (fun i (s : Measure.span) ->
            output_string oc
              (print
                 (Obj
                    [
                      ("name", Str s.Measure.name);
                      ("start", Num s.Measure.start);
                      ("end", Num s.Measure.stop);
                      ("parent", Num (float_of_int s.Measure.parent));
                      ("rid", Num (float_of_int s.Measure.rid));
                      ("self_s", Num self.(i));
                    ]));
            output_char oc '\n')
          spans));
  print_endline (print doc)
