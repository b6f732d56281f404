(* Tests for the Obs observability layer: metrics (histogram percentiles,
   bucket boundaries, counters/gauges) and spans (nesting, cross-domain
   adoption, parallel/sequential tree-shape equality, and the guarantee
   that tracing never changes query results). *)

let with_tracing f =
  Obs.Span.reset ();
  Obs.Span.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Span.set_enabled false;
      Obs.Span.reset ())
    f

(* --- metrics ------------------------------------------------------------ *)

let test_empty_histogram () =
  let h = Obs.Metrics.histogram "test.obs.empty" in
  let st = Obs.Metrics.histogram_stats h in
  Alcotest.(check int) "no observations" 0 st.Obs.Metrics.n;
  Alcotest.(check (float 0.)) "p50 of empty is 0" 0. st.Obs.Metrics.p50;
  Alcotest.(check (float 0.)) "p99 of empty is 0" 0. st.Obs.Metrics.p99;
  Alcotest.(check (float 0.)) "mean of empty is 0" 0. (Obs.Metrics.mean h);
  Alcotest.(check (float 0.)) "percentile of empty is 0" 0.
    (Obs.Metrics.percentile h 50.)

let test_histogram_bucket_boundaries () =
  let h = Obs.Metrics.histogram ~buckets:[| 1.; 2.; 5. |] "test.obs.buckets" in
  List.iter (Obs.Metrics.observe h) [ 0.5; 1.5; 1.5; 4.9; 100. ];
  let st = Obs.Metrics.histogram_stats h in
  Alcotest.(check int) "five observations" 5 st.Obs.Metrics.n;
  Alcotest.(check (float 1e-9)) "min tracked exactly" 0.5 st.Obs.Metrics.min_v;
  Alcotest.(check (float 1e-9)) "max tracked exactly" 100. st.Obs.Metrics.max_v;
  (* rank 1 (p20) falls in the <=1 bucket: estimate is its upper bound *)
  Alcotest.(check (float 1e-9)) "p20 is first bucket bound" 1.
    (Obs.Metrics.percentile h 20.);
  (* rank 3 (p50) falls in the <=2 bucket *)
  Alcotest.(check (float 1e-9)) "p50 is second bucket bound" 2.
    st.Obs.Metrics.p50;
  (* rank 5 (p99) lands in the overflow bucket, clamped to the observed max *)
  Alcotest.(check (float 1e-9)) "p99 clamps overflow to max" 100.
    st.Obs.Metrics.p99;
  Alcotest.(check (float 1e-9)) "mean is the exact sum / n"
    ((0.5 +. 1.5 +. 1.5 +. 4.9 +. 100.) /. 5.)
    (Obs.Metrics.mean h);
  (* NaN observations are dropped, not poisoning the sums *)
  Obs.Metrics.observe h Float.nan;
  Alcotest.(check int) "NaN ignored" 5
    (Obs.Metrics.histogram_stats h).Obs.Metrics.n

let test_counter_gauge_and_kind_clash () =
  let c = Obs.Metrics.counter "test.obs.counter" in
  Obs.Metrics.incr c;
  Obs.Metrics.incr ~by:4 c;
  Alcotest.(check int) "counter accumulates" 5 (Obs.Metrics.counter_value c);
  let c' = Obs.Metrics.counter "test.obs.counter" in
  Obs.Metrics.incr c';
  Alcotest.(check int) "same name shares the instrument" 6
    (Obs.Metrics.counter_value c);
  let g = Obs.Metrics.gauge "test.obs.gauge" in
  Obs.Metrics.set_gauge g 2.5;
  Alcotest.(check (float 0.)) "gauge holds last value" 2.5
    (Obs.Metrics.gauge_value g);
  Alcotest.(check bool) "kind clash rejected" true
    (match Obs.Metrics.counter "test.obs.gauge" with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* --- spans -------------------------------------------------------------- *)

let rec shape (s : Obs.Span.t) =
  s.Obs.Span.span_name
  ^ "(" ^ String.concat "," (List.map shape s.Obs.Span.children) ^ ")"

let test_span_disabled_is_noop () =
  Obs.Span.reset ();
  Obs.Span.set_enabled false;
  Obs.Span.with_span "invisible" (fun () -> ());
  Alcotest.(check int) "nothing recorded when disabled" 0
    (List.length (Obs.Span.take_roots ()))

let test_span_nesting_and_sibling_order () =
  with_tracing (fun () ->
      Obs.Span.with_span "parent" (fun () ->
          (* complete out of index order; the parent must sort them *)
          Obs.Span.with_span ~index:1 "late" (fun () -> ());
          Obs.Span.with_span ~index:0 "early" (fun () -> ()));
      match Obs.Span.take_roots () with
      | [ root ] ->
        Alcotest.(check string) "tree shape, siblings by index"
          "parent(early(),late())" (shape root);
        Alcotest.(check bool) "duration non-negative" true
          (root.Obs.Span.dur_s >= 0.)
      | roots -> Alcotest.failf "expected one root, got %d" (List.length roots))

let test_span_exception_closes () =
  with_tracing (fun () ->
      Alcotest.(check bool) "exception propagates" true
        (match
           Obs.Span.with_span "outer" (fun () ->
               Obs.Span.with_span "inner" (fun () -> failwith "boom"))
         with
         | exception Failure _ -> true
         | () -> false);
      match Obs.Span.take_roots () with
      | [ root ] ->
        Alcotest.(check string) "both spans closed" "outer(inner())"
          (shape root);
        let inner = List.hd root.Obs.Span.children in
        Alcotest.(check bool) "error attribute recorded" true
          (List.mem_assoc "error" inner.Obs.Span.attrs)
      | roots -> Alcotest.failf "expected one root, got %d" (List.length roots))

let test_span_adoption_across_pool_domains () =
  let pool = Mbds.Pool.create 1 in
  let caller = Domain.self () in
  with_tracing (fun () ->
      Obs.Span.with_span "parent" (fun () ->
          let results = Array.make 4 (-1) in
          let remote_started = Atomic.make false in
          Mbds.Pool.run pool 4 (fun i ->
              Obs.Span.with_span ~index:i "task" (fun () ->
                  if Domain.self () <> caller then Atomic.set remote_started true
                  else begin
                    (* hold the caller's first share until the worker has
                       taken one, so some spans really are remote *)
                    let deadline = Unix.gettimeofday () +. 10. in
                    while
                      (not (Atomic.get remote_started))
                      && Unix.gettimeofday () < deadline
                    do
                      Domain.cpu_relax ()
                    done
                  end;
                  results.(i) <- i));
          Alcotest.(check (list int)) "pool results intact" [ 0; 1; 2; 3 ]
            (Array.to_list results);
          (* [run] returned: the worker is quiescent, so its completed
             roots may be spliced under the open parent *)
          Obs.Span.adopt_remote ());
      match Obs.Span.take_roots () with
      | [ root ] ->
        Alcotest.(check string) "worker spans adopted in index order"
          "parent(task(),task(),task(),task())" (shape root);
        Alcotest.(check (list int)) "indexes preserved" [ 0; 1; 2; 3 ]
          (List.map (fun c -> c.Obs.Span.index) root.Obs.Span.children);
        Alcotest.(check bool) "a worker recorded some of them" true
          (List.exists
             (fun c -> c.Obs.Span.domain <> (caller :> int))
             root.Obs.Span.children)
      | roots -> Alcotest.failf "expected one root, got %d" (List.length roots));
  Mbds.Pool.shutdown pool

let emp name salary =
  Abdm.Record.make
    [
      Abdm.Keyword.file "employee";
      Abdm.Keyword.make "name" (Abdm.Value.Str name);
      Abdm.Keyword.make "salary" (Abdm.Value.Int salary);
    ]

let populate insert n =
  List.iter
    (fun i -> ignore (insert (emp (Printf.sprintf "e%d" i) (i * 10))))
    (List.init n (fun i -> i))

(* A controller on the shared pool must emit the same span tree shape as
   one without workers — worker-side spans are adopted and ordered by
   backend index. *)
let test_parallel_sequential_same_tree_shape () =
  let shapes ~name pool =
    let c = Mbds.Controller.create ~pool ~name 4 in
    populate (Mbds.Controller.insert c) 40;
    with_tracing (fun () ->
        let q =
          Abdl.Parser.query "(FILE = employee) AND (salary >= 100)"
        in
        ignore (Mbds.Controller.select c q);
        ignore (Mbds.Controller.update c q
                  [ Abdm.Modifier.Set_const ("salary", Abdm.Value.Int 1) ]);
        List.map shape (Obs.Span.take_roots ()))
  in
  Alcotest.(check (list string)) "same span tree shape"
    (shapes ~name:"obs-seq" (Mbds.Pool.create 0))
    (shapes ~name:"obs-par" (Mbds.Pool.shared ()))

(* Property: enabling tracing changes no request result and no final
   database contents (spans are pure observation). *)
let prop_trace_transparency =
  QCheck2.Test.make ~name:"tracing does not change query results" ~count:30
    QCheck2.Gen.(
      pair
        (int_range 1 5)
        (list_size (int_range 0 20) (pair (int_range 0 4) (int_range 0 8))))
    (fun (backends, ops) ->
      let run traced =
        Obs.Span.reset ();
        Obs.Span.set_enabled traced;
        Fun.protect
          ~finally:(fun () ->
            Obs.Span.set_enabled false;
            Obs.Span.reset ())
          (fun () ->
            let c = Mbds.Controller.create backends in
            let log = ref [] in
            let emit s = log := s :: !log in
            List.iter
              (fun (op, v) ->
                let record = emp (Printf.sprintf "n%d" v) v in
                let q =
                  Abdm.Query.conj
                    [ Abdm.Predicate.file_eq "employee";
                      Abdm.Predicate.make "salary" Abdm.Predicate.Eq
                        (Abdm.Value.Int v) ]
                in
                match op with
                | 0 | 1 -> emit (string_of_int (Mbds.Controller.insert c record))
                | 2 -> emit (string_of_int (Mbds.Controller.delete c q))
                | 3 ->
                  let m =
                    [ Abdm.Modifier.Set_arith
                        ("salary", Abdm.Modifier.Add, Abdm.Value.Int 1) ]
                  in
                  emit (string_of_int (Mbds.Controller.update c q m))
                | _ ->
                  emit
                    (String.concat ";"
                       (Mbds.Controller.select c q
                       |> List.map (fun (k, r) ->
                              Printf.sprintf "%d=%s" k
                                (Abdm.Record.to_string r)))))
              ops;
            let q_all = Abdm.Query.conj [ Abdm.Predicate.file_eq "employee" ] in
            let final =
              Mbds.Controller.select c q_all
              |> List.map (fun (k, r) ->
                     Printf.sprintf "%d=%s" k (Abdm.Record.to_string r))
            in
            List.rev !log, final)
      in
      run false = run true)

(* --- exporters ---------------------------------------------------------- *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_span_tree_rendering () =
  with_tracing (fun () ->
      Obs.Span.with_span "root"
        ~attrs:(fun () -> [ "k", "v" ])
        (fun () ->
          Obs.Span.with_span "a" (fun () -> ());
          Obs.Span.with_span "b" (fun () -> ()));
      match Obs.Span.take_roots () with
      | [ root ] ->
        let text = Obs.Export.span_tree root in
        List.iter
          (fun needle ->
            Alcotest.(check bool) ("tree mentions " ^ needle) true
              (contains ~needle text))
          [ "root"; "{k=v}"; "├─ a"; "└─ b" ]
      | _ -> Alcotest.fail "expected one root")

let test_span_jsonl_escaping () =
  with_tracing (fun () ->
      Obs.Span.with_span "quote\"name"
        ~attrs:(fun () -> [ "attr", "line\nbreak" ])
        (fun () -> ());
      match Obs.Span.take_roots () with
      | [ root ] ->
        let json = Obs.Export.span_jsonl root in
        Alcotest.(check bool) "one line" true
          (String.index_opt (String.trim json) '\n' = None);
        Alcotest.(check bool) "quotes escaped" true
          (contains ~needle:"quote\\\"name" json);
        Alcotest.(check bool) "newline escaped" true
          (contains ~needle:"line\\nbreak" json)
      | _ -> Alcotest.fail "expected one root")

(* The exporter contract (used by the Stats opcode and the --telemetry
   sink): however hard concurrent writers hammer the registry, every
   JSONL line parses, and no registered instrument is ever missing from
   the snapshot. *)
let prop_metrics_jsonl_consistent =
  QCheck2.Test.make
    ~name:"metrics jsonl always parses and loses no instrument" ~count:10
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun salt ->
      let prefix = Printf.sprintf "test.obs.jsonl%d" salt in
      let c = Obs.Metrics.counter (prefix ^ ".count") in
      let g = Obs.Metrics.gauge (prefix ^ ".depth") in
      let h = Obs.Metrics.histogram (prefix ^ ".lat") in
      let stop = Atomic.make false in
      let writers =
        List.init 2 (fun w ->
            Domain.spawn (fun () ->
                let i = ref 0 in
                while not (Atomic.get stop) do
                  Obs.Metrics.incr c;
                  Obs.Metrics.set_gauge g (float_of_int (!i + w));
                  Obs.Metrics.observe h (float_of_int (!i mod 7) /. 100.);
                  incr i
                done))
      in
      let ok = ref true in
      for _ = 1 to 20 do
        let lines =
          String.split_on_char '\n' (String.trim (Obs.Export.metrics_jsonl ()))
        in
        let names =
          List.filter_map
            (fun line ->
              if line = "" then None
              else
                match Obs.Json.parse line with
                | Ok json -> Obs.Json.str_member "name" json
                | Error _ ->
                  ok := false;
                  None)
            lines
        in
        List.iter
          (fun suffix ->
            if not (List.mem (prefix ^ suffix) names) then ok := false)
          [ ".count"; ".depth"; ".lat" ]
      done;
      Atomic.set stop true;
      List.iter Domain.join writers;
      (* a final snapshot taken with the world quiet agrees with the
         instruments read directly *)
      let snap = Obs.Metrics.snapshot () in
      let counter_in_snap =
        List.exists
          (function
            | Obs.Metrics.Counter (name, v) ->
              name = prefix ^ ".count" && v = Obs.Metrics.counter_value c
            | _ -> false)
          snap
      in
      !ok && counter_in_snap)

let suite =
  [
    "empty histogram percentiles", `Quick, test_empty_histogram;
    "histogram bucket boundaries", `Quick, test_histogram_bucket_boundaries;
    "counters, gauges, kind clash", `Quick, test_counter_gauge_and_kind_clash;
    "disabled tracing records nothing", `Quick, test_span_disabled_is_noop;
    "span nesting and sibling order", `Quick, test_span_nesting_and_sibling_order;
    "exception closes span", `Quick, test_span_exception_closes;
    "adoption across pool domains", `Quick, test_span_adoption_across_pool_domains;
    ( "parallel and sequential trees agree", `Quick,
      test_parallel_sequential_same_tree_shape );
    "span tree rendering", `Quick, test_span_tree_rendering;
    "span jsonl escaping", `Quick, test_span_jsonl_escaping;
    QCheck_alcotest.to_alcotest prop_trace_transparency;
    QCheck_alcotest.to_alcotest prop_metrics_jsonl_consistent;
  ]
