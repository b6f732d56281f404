(* Direct tests for the kernel abstraction (Mapping.Kernel) and the MBDS
   cost model (Mbds.Cost). *)

let record name v =
  Abdm.Record.make
    [
      Abdm.Keyword.file "f";
      Abdm.Keyword.make "name" (Abdm.Value.Str name);
      Abdm.Keyword.make "x" (Abdm.Value.Int v);
    ]

let both_kernels () = [ Mapping.Kernel.single (), "single"; Mapping.Kernel.multi 3, "multi" ]

let test_kernel_ops_agree () =
  List.iter
    (fun (kernel, label) ->
      let k1 = Mapping.Kernel.insert kernel (record "a" 1) in
      let _ = Mapping.Kernel.insert kernel (record "b" 2) in
      Alcotest.(check int) (label ^ " size") 2 (Mapping.Kernel.size kernel);
      Alcotest.(check int) (label ^ " count") 2 (Mapping.Kernel.count kernel "f");
      Alcotest.(check bool) (label ^ " get") true
        (Mapping.Kernel.get kernel k1 <> None);
      let n =
        Mapping.Kernel.update kernel
          (Abdl.Parser.query "(FILE = f) AND (x = 1)")
          [ Abdm.Modifier.Set_const ("x", Abdm.Value.Int 10) ]
      in
      Alcotest.(check int) (label ^ " updated") 1 n;
      Mapping.Kernel.replace kernel k1 (record "a" 99);
      let hits = Mapping.Kernel.select kernel (Abdl.Parser.query "(FILE = f) AND (x = 99)") in
      Alcotest.(check int) (label ^ " replace visible") 1 (List.length hits);
      let n = Mapping.Kernel.delete kernel (Abdl.Parser.query "(FILE = f)") in
      Alcotest.(check int) (label ^ " deleted") 2 n)
    (both_kernels ())

let test_kernel_run_and_time () =
  let single = Mapping.Kernel.single () in
  let multi = Mapping.Kernel.multi 2 in
  ignore (Mapping.Kernel.insert single (record "a" 1));
  ignore (Mapping.Kernel.insert multi (record "a" 1));
  let request = Abdl.Parser.request "RETRIEVE ((FILE = f)) (name)" in
  begin
    match Mapping.Kernel.run single request, Mapping.Kernel.run multi request with
    | Abdl.Exec.Rows [ _ ], Abdl.Exec.Rows [ _ ] -> ()
    | _ -> Alcotest.fail "both kernels must answer"
  end;
  (* the single store now measures its own wall clock per request (used to
     be the constant 0.) — durations can round to 0 us, so assert the
     request accounting rather than strict positivity *)
  Alcotest.(check bool) "single store reports a measured time" true
    (Mapping.Kernel.last_response_time single >= 0.);
  begin
    match Mapping.Kernel.kds single with
    | Mapping.Kernel.Single store ->
      Alcotest.(check bool) "store counted its requests" true
        (Abdm.Store.request_count store > 0);
      Alcotest.(check bool) "total covers last" true
        (Abdm.Store.total_request_time store
         >= Abdm.Store.last_request_time store)
    | Mapping.Kernel.Multi _ -> Alcotest.fail "expected a single-store kernel"
  end;
  Alcotest.(check bool) "mbds reports simulated time" true
    (Mapping.Kernel.last_response_time multi > 0.)

let test_kernel_multi_placement () =
  (* the plumbed-through placement reaches the controller *)
  let k = Mapping.Kernel.multi ~placement:(Mbds.Controller.Skewed 1.0) 4 in
  List.iter
    (fun i -> ignore (Mapping.Kernel.insert k (record (string_of_int i) i)))
    (List.init 12 Fun.id);
  match Mapping.Kernel.kds k with
  | Mapping.Kernel.Multi ctrl ->
    Alcotest.(check (list int)) "skew 1.0 routes all to backend 0"
      [ 12; 0; 0; 0 ]
      (Mbds.Controller.backend_sizes ctrl)
  | Mapping.Kernel.Single _ -> Alcotest.fail "expected a multi kernel"

let test_kernel_atomically_ok () =
  let kernel = Mapping.Kernel.single () in
  let result =
    Mapping.Kernel.atomically kernel (fun () ->
        ignore (Mapping.Kernel.insert kernel (record "a" 1));
        Ok "done")
  in
  Alcotest.(check bool) "committed" true (result = Ok "done");
  Alcotest.(check int) "record kept" 1 (Mapping.Kernel.size kernel)

let test_kernel_atomically_exception () =
  let kernel = Mapping.Kernel.single () in
  ignore (Mapping.Kernel.insert kernel (record "keep" 1));
  Alcotest.(check bool) "exception propagates" true
    (match
       Mapping.Kernel.atomically kernel (fun () ->
           ignore (Mapping.Kernel.insert kernel (record "gone" 2));
           failwith "boom")
     with
     | exception Failure _ -> true
     | _ -> false);
  Alcotest.(check int) "rolled back on exception" 1 (Mapping.Kernel.size kernel)

(* --- the cost model directly ----------------------------------------------- *)

let test_cost_parallel_max () =
  let cost =
    { Mbds.Cost.t_overhead = 0.; t_broadcast = 0.; t_scan = 1.; t_io = 10.; t_result = 0. }
  in
  (* parallel term is the max over backends, not the sum *)
  let dt = Mbds.Cost.response_time cost ~backend_work:[ 5, 0; 3, 0; 1, 0 ] ~results:0 in
  Alcotest.(check (float 1e-9)) "max scan" 5.0 dt;
  let dt = Mbds.Cost.response_time cost ~backend_work:[ 1, 2; 4, 0 ] ~results:0 in
  Alcotest.(check (float 1e-9)) "io counts per backend" 21.0 dt

let test_cost_serial_results () =
  let cost =
    { Mbds.Cost.t_overhead = 1.; t_broadcast = 2.; t_scan = 0.; t_io = 0.; t_result = 3. }
  in
  let dt = Mbds.Cost.response_time cost ~backend_work:[ 0, 0 ] ~results:4 in
  Alcotest.(check (float 1e-9)) "overhead + broadcast + results" 15.0 dt

let test_cost_default_sane () =
  let c = Mbds.Cost.default in
  Alcotest.(check bool) "io dominates scan" true (c.t_io > c.t_scan);
  Alcotest.(check bool) "all positive" true
    (c.t_overhead > 0. && c.t_broadcast > 0. && c.t_scan > 0. && c.t_result > 0.)

let suite =
  [
    "kernel ops agree across backends", `Quick, test_kernel_ops_agree;
    "kernel run and simulated time", `Quick, test_kernel_run_and_time;
    "multi kernel placement knob", `Quick, test_kernel_multi_placement;
    "atomically commits", `Quick, test_kernel_atomically_ok;
    "atomically rolls back on exception", `Quick, test_kernel_atomically_exception;
    "cost: parallel max", `Quick, test_cost_parallel_max;
    "cost: serial results", `Quick, test_cost_serial_results;
    "cost: defaults sane", `Quick, test_cost_default_sane;
  ]
