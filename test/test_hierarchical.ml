(* Tests for the hierarchical/DL-I language interface. *)

let medical_ddl =
  {|DATABASE medical
SEGMENT patient (pname CHAR(20), pid INT)
SEGMENT visit PARENT patient (vdate CHAR(10), cost INT)
SEGMENT treatment PARENT visit (drug CHAR(12))
SEGMENT insurer PARENT patient (company CHAR(20))
|}

let fresh () =
  let schema = Hierarchical.Ddl_parser.schema medical_ddl in
  let t = Hierarchical.Engine.create (Mapping.Kernel.single ()) schema in
  let setup =
    [
      "ISRT patient (pname = 'Doe', pid = 1)";
      "ISRT patient(pid = 1) visit (vdate = 'Jan', cost = 100)";
      "ISRT patient(pid = 1) visit (vdate = 'Feb', cost = 250)";
      "ISRT patient(pid = 1) insurer (company = 'Aetna')";
      "ISRT patient (pname = 'Roe', pid = 2)";
      "ISRT patient(pid = 2) visit (vdate = 'Mar', cost = 80)";
    ]
  in
  List.iter
    (fun src ->
      match Hierarchical.Engine.run t src with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s: %s" src msg)
    setup;
  (* treatments under Doe's Feb visit *)
  begin
    match Hierarchical.Engine.run t "GU patient(pid = 1) visit(vdate = 'Feb')" with
    | Ok (Hierarchical.Engine.Found _) -> ()
    | _ -> Alcotest.fail "setup GU failed"
  end;
  List.iter
    (fun src -> ignore (Hierarchical.Engine.run t src))
    [ "ISRT treatment (drug = 'aspirin')"; "ISRT treatment (drug = 'codeine')" ];
  t

type found = {
  segment : string;
  key : int;
  fields : (string * Abdm.Value.t) list;
}

let expect_found t src =
  match Hierarchical.Engine.run t src with
  | Ok (Hierarchical.Engine.Found { segment; key; fields }) ->
    { segment; key; fields }
  | Ok o -> Alcotest.failf "%s: expected Found, got %s" src (Hierarchical.Engine.outcome_to_string o)
  | Error msg -> Alcotest.failf "%s: %s" src msg

let expect_ge t src =
  match Hierarchical.Engine.run t src with
  | Ok Hierarchical.Engine.Not_found -> ()
  | Ok o -> Alcotest.failf "%s: expected GE, got %s" src (Hierarchical.Engine.outcome_to_string o)
  | Error msg -> Alcotest.failf "%s: %s" src msg

let field f fields =
  match List.assoc_opt f fields with
  | Some v -> Abdm.Value.to_display v
  | None -> Alcotest.failf "missing field %s" f

(* --- DDL -------------------------------------------------------------- *)

let test_ddl () =
  let schema = Hierarchical.Ddl_parser.schema medical_ddl in
  Alcotest.(check int) "4 segments" 4 (List.length schema.Hierarchical.Types.segments);
  Alcotest.(check (list string)) "roots" [ "patient" ]
    (List.map
       (fun (s : Hierarchical.Types.segment) -> s.seg_name)
       (Hierarchical.Types.roots schema));
  Alcotest.(check (list string)) "children of patient" [ "visit"; "insurer" ]
    (List.map
       (fun (s : Hierarchical.Types.segment) -> s.seg_name)
       (Hierarchical.Types.children schema "patient"));
  Alcotest.(check (list string)) "ancestors of treatment"
    [ "visit"; "patient" ]
    (Hierarchical.Types.ancestors schema "treatment")

let test_ddl_errors () =
  let bad src =
    match Hierarchical.Ddl_parser.schema src with
    | exception Hierarchical.Ddl_parser.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "missing database" true (bad "SEGMENT a (x INT)");
  Alcotest.(check bool) "parent before child" true
    (bad "DATABASE d\nSEGMENT b PARENT a (x INT)\nSEGMENT a (y INT)");
  Alcotest.(check bool) "no root" true
    (bad "DATABASE d");
  Alcotest.(check bool) "duplicate segment" true
    (bad "DATABASE d\nSEGMENT a (x INT)\nSEGMENT a (y INT)")

(* --- calls ------------------------------------------------------------ *)

let test_gu_path () =
  let t = fresh () in
  let f = expect_found t "GU patient(pid = 1) visit(cost > 200)" in
  Alcotest.(check string) "segment" "visit" f.segment;
  Alcotest.(check string) "vdate" "Feb" (field "vdate" f.fields);
  (* qualified path must bind: Roe has no visit over 200 *)
  expect_ge t "GU patient(pid = 2) visit(cost > 200)"

let test_gn_sequence () =
  let t = fresh () in
  let f = expect_found t "GU patient(pid = 1)" in
  Alcotest.(check string) "start at Doe" "Doe" (field "pname" f.fields);
  (* hierarchic order: Doe, Jan visit, Feb visit, treatments, insurer, Roe... *)
  let segs = ref [] in
  let rec loop () =
    match Hierarchical.Engine.run t "GN" with
    | Ok (Hierarchical.Engine.Found f) ->
      segs := f.segment :: !segs;
      loop ()
    | Ok Hierarchical.Engine.Not_found -> ()
    | Ok o -> Alcotest.failf "unexpected %s" (Hierarchical.Engine.outcome_to_string o)
    | Error msg -> Alcotest.fail msg
  in
  loop ();
  Alcotest.(check (list string)) "hierarchic sequence after Doe"
    [ "visit"; "visit"; "treatment"; "treatment"; "insurer"; "patient"; "visit" ]
    (List.rev !segs)

let test_gn_with_ssa () =
  let t = fresh () in
  let _ = expect_found t "GU patient(pid = 1)" in
  let f = expect_found t "GN visit(cost > 90)" in
  Alcotest.(check string) "first expensive visit" "Jan" (field "vdate" f.fields);
  let f = expect_found t "GN visit(cost > 90)" in
  Alcotest.(check string) "next expensive visit" "Feb" (field "vdate" f.fields);
  expect_ge t "GN visit(cost > 90)"

let test_gnp_within_parent () =
  let t = fresh () in
  let _ = expect_found t "GU patient(pid = 1)" in
  (* all of Doe's visits, but not Roe's *)
  let f = expect_found t "GNP visit" in
  Alcotest.(check string) "Jan" "Jan" (field "vdate" f.fields);
  let f = expect_found t "GNP visit" in
  Alcotest.(check string) "Feb" "Feb" (field "vdate" f.fields);
  expect_ge t "GNP visit";
  (* GNP without SSA walks every descendant of the parent *)
  let _ = expect_found t "GU patient(pid = 2)" in
  let f = expect_found t "GNP" in
  Alcotest.(check string) "Roe's visit" "visit" f.segment;
  expect_ge t "GNP"

let test_gnp_requires_parentage () =
  let schema = Hierarchical.Ddl_parser.schema medical_ddl in
  let t = Hierarchical.Engine.create (Mapping.Kernel.single ()) schema in
  match Hierarchical.Engine.run t "GNP" with
  | Error msg ->
    Alcotest.(check bool) "mentions parentage" true
      (Daplex.Str_search.find msg "parentage" <> None)
  | Ok o -> Alcotest.failf "unexpected %s" (Hierarchical.Engine.outcome_to_string o)

let test_isrt_under_parentage () =
  let t = fresh () in
  let _ = expect_found t "GU patient(pid = 2)" in
  (* path-less ISRT of a child uses current parentage *)
  begin
    match Hierarchical.Engine.run t "ISRT visit (vdate = 'Apr', cost = 10)" with
    | Ok (Hierarchical.Engine.Inserted _) -> ()
    | Ok o -> Alcotest.failf "unexpected %s" (Hierarchical.Engine.outcome_to_string o)
    | Error msg -> Alcotest.fail msg
  end;
  let f = expect_found t "GU patient(pid = 2) visit(vdate = 'Apr')" in
  Alcotest.(check string) "cost stored" "10" (field "cost" f.fields)

let test_isrt_errors () =
  let t = fresh () in
  let bad src =
    match Hierarchical.Engine.run t src with
    | Error _ -> true
    | Ok _ -> false
  in
  Alcotest.(check bool) "unknown segment" true (bad "ISRT ghost (x = 1)");
  Alcotest.(check bool) "unknown field" true (bad "ISRT patient (age = 1)");
  Alcotest.(check bool) "root with path" true
    (bad "ISRT patient(pid = 1) patient (pname = 'x', pid = 3)");
  Alcotest.(check bool) "missing parent path" true
    (bad "GU patient(pid = 99)" || bad "ISRT treatment (drug = 'x')")

let test_repl () =
  let t = fresh () in
  let _ = expect_found t "GU patient(pid = 1) visit(vdate = 'Jan')" in
  begin
    match Hierarchical.Engine.run t "REPL (cost = 120)" with
    | Ok (Hierarchical.Engine.Replaced 1) -> ()
    | Ok o -> Alcotest.failf "unexpected %s" (Hierarchical.Engine.outcome_to_string o)
    | Error msg -> Alcotest.fail msg
  end;
  let f = expect_found t "GU patient(pid = 1) visit(vdate = 'Jan')" in
  Alcotest.(check string) "cost updated" "120" (field "cost" f.fields)

let test_dlet_subtree () =
  let t = fresh () in
  let _ = expect_found t "GU patient(pid = 1) visit(vdate = 'Feb')" in
  begin
    match Hierarchical.Engine.run t "DLET" with
    | Ok (Hierarchical.Engine.Deleted 3) -> ()  (* visit + 2 treatments *)
    | Ok o -> Alcotest.failf "unexpected %s" (Hierarchical.Engine.outcome_to_string o)
    | Error msg -> Alcotest.fail msg
  end;
  expect_ge t "GU patient(pid = 1) visit(vdate = 'Feb')";
  expect_ge t "GU treatment(drug = 'aspirin')"

let test_parser_errors () =
  let bad src =
    match Hierarchical.Dli_parser.call src with
    | exception Hierarchical.Dli_parser.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "unknown call" true (bad "GET patient");
  Alcotest.(check bool) "GU without SSA" true (bad "GU");
  Alcotest.(check bool) "ISRT without fields" true (bad "ISRT patient");
  Alcotest.(check bool) "qualified ISRT target" true
    (bad "ISRT patient(pid = 1) (pname = 'x')")

(* IMS answers status AK, not GE, for a qualification on a field the
   segment does not have; ISRT and REPL already refuse one. *)
let test_ssa_unknown_field () =
  let t = fresh () in
  let no_field src =
    match Hierarchical.Engine.run t src with
    | Error msg ->
      Alcotest.(check bool) (src ^ ": names the field") true
        (Daplex.Str_search.find msg "has no field \"age\"" <> None)
    | Ok o ->
      Alcotest.failf "%s: expected an error, got %s" src
        (Hierarchical.Engine.outcome_to_string o)
  in
  no_field "GU patient(age = 1)";
  no_field "GU patient(age = 1) visit(vdate = 'Jan')";
  let _ = expect_found t "GU patient(pid = 1)" in
  no_field "GN visit(age > 1)";
  no_field "GNP visit(age > 1)"

(* [n] patients, pid 1..n, each with one visit dated 'v1'. *)
let clinic ?(kernel = Mapping.Kernel.single ()) n =
  let schema = Hierarchical.Ddl_parser.schema medical_ddl in
  let t = Hierarchical.Engine.create kernel schema in
  for pid = 1 to n do
    List.iter
      (fun src ->
        match Hierarchical.Engine.run t src with
        | Ok (Hierarchical.Engine.Inserted _) -> ()
        | Ok o -> Alcotest.failf "%s: %s" src (Hierarchical.Engine.outcome_to_string o)
        | Error msg -> Alcotest.failf "%s: %s" src msg)
      [
        Printf.sprintf "ISRT patient (pname = 'p%d', pid = %d)" pid pid;
        "ISRT visit (vdate = 'v1', cost = 10)";
      ]
  done;
  t

(* GU translates its SSAs into one RETRIEVE per segment type on the path,
   and GN/GNP walk on from the cursor: the requests a call issues do not
   grow with the database. *)
let test_requests_independent_of_size () =
  let requests (kernel, t) src =
    let _, log =
      Mapping.Kernel.collect kernel (fun () -> ignore (expect_found t src))
    in
    List.iter
      (function
        | Abdl.Ast.Retrieve _ -> ()
        | r -> Alcotest.failf "%s issued %s" src (Abdl.Ast.to_string r))
      log;
    List.length log
  in
  let counts n =
    let kernel = Mapping.Kernel.single () in
    let t = kernel, clinic ~kernel n in
    let k = n / 2 in
    let gu = Printf.sprintf "GU patient(pid = %d)" k in
    let gu_visit = Printf.sprintf "GU patient(pid = %d) visit(vdate = 'v1')" k in
    let root = requests t gu in
    let visit = requests t gu_visit in
    ignore (requests t gu);
    let gn = List.map (fun _ -> requests t "GN") [ 1; 2 ] in
    ignore (requests t gu);
    let gnp = requests t "GNP visit" in
    Alcotest.(check int) (Printf.sprintf "GU by root key, %d patients" n) 1 root;
    Alcotest.(check int) (Printf.sprintf "GU root + visit, %d patients" n) 2 visit;
    gn, gnp
  in
  let small = counts 30 and large = counts 3000 in
  Alcotest.(check (pair (list int) int)) "GN, GNP: 30 vs 3000 patients" small large

(* --- the walk against the whole-sequence oracle ----------------------- *)

(* Three levels, sibling types at the second and third, two root types. *)
let tree_ddl =
  {|DATABASE tree
SEGMENT a (x INT, s CHAR(4))
SEGMENT b PARENT a (x INT, s CHAR(4))
SEGMENT c PARENT b (x INT)
SEGMENT d PARENT b (s CHAR(4))
SEGMENT e PARENT a (x INT)
SEGMENT f (s CHAR(4))
|}

(* Random DL/I calls over [schema]'s own fields; GU paths sometimes name a
   segment off the target's ancestor chain. *)
let gen_call (schema : Hierarchical.Types.schema) =
  let open QCheck2.Gen in
  let open Hierarchical in
  let segments = schema.segments in
  let find name = Option.get (Types.find_segment schema name) in
  let gen_value (fd : Types.field) =
    match fd.field_type with
    | Types.F_int -> map (fun i -> Abdm.Value.Int i) (int_range 0 3)
    | Types.F_float -> map (fun i -> Abdm.Value.Float (float_of_int i)) (int_range 0 3)
    | Types.F_string _ -> map (fun s -> Abdm.Value.Str s) (oneofl [ "p"; "q"; "r" ])
  in
  let gen_qual (seg : Types.segment) =
    let* fd = oneofl seg.seg_fields in
    let* q_op = oneofl Abdm.Predicate.[ Eq; Neq; Lt; Le; Gt; Ge ] in
    let* q_value =
      frequency [ 9, gen_value fd; 1, pure Abdm.Value.Null ]
    in
    pure { Dli_ast.q_field = fd.field_name; q_op; q_value }
  in
  let gen_ssa (seg : Types.segment) =
    map
      (fun ssa_qual -> { Dli_ast.ssa_segment = seg.seg_name; ssa_qual })
      (opt (gen_qual seg))
  in
  (* a GU path ending at [target]: some of its ancestors, outermost first *)
  let gen_gu (target : Types.segment) =
    let* path =
      flatten_l
        (List.map
           (fun name ->
             let* keep = bool in
             if keep then map Option.some (gen_ssa (find name)) else pure None)
           (List.rev (Types.ancestors schema target.seg_name)))
    in
    let* stray = frequency [ 9, pure []; 1, map (fun s -> [ s ]) (oneofl segments) ] in
    let* stray = flatten_l (List.map gen_ssa stray) in
    let* last = gen_ssa target in
    pure (List.filter_map Fun.id path @ stray @ [ last ])
  in
  let gen_fields (seg : Types.segment) =
    flatten_l
      (List.map
         (fun (fd : Types.field) ->
           let* v = opt (gen_value fd) in
           pure (Option.map (fun v -> fd.field_name, v) v))
         seg.seg_fields)
    |> map (List.filter_map Fun.id)
  in
  frequency
    [
      (3, oneofl segments >>= gen_gu >|= fun ssas -> Dli_ast.Gu ssas);
      (3, opt (oneofl segments >>= gen_ssa) >|= fun ssa -> Dli_ast.Gn ssa);
      (2, opt (oneofl segments >>= gen_ssa) >|= fun ssa -> Dli_ast.Gnp ssa);
      ( 5,
        let* seg = oneofl segments in
        let* path =
          match seg.seg_parent with
          | None -> pure []
          | Some parent -> frequency [ 1, pure []; 2, gen_gu (find parent) ]
        in
        let* fields = gen_fields seg in
        pure (Dli_ast.Isrt { path; segment = seg.seg_name; fields }) );
      (1, oneofl segments >>= gen_fields >|= fun fields -> Dli_ast.Repl fields);
      (1, pure Dli_ast.Dlet);
    ]

let show_position = function
  | Some (seg, key) -> Printf.sprintf "%s %d" seg key
  | None -> "no position"

let show_result = function
  | Ok o -> Hierarchical.Engine.outcome_to_string o
  | Error msg -> "error: " ^ msg

(* After every call of a random script, the walk and the oracle give the
   same outcome (errors included) and the same position. *)
let prop_walk_matches_oracle name kernel =
  let schema = Hierarchical.Ddl_parser.schema tree_ddl in
  QCheck2.Test.make ~count:3000
    ~name:("DL/I walk = whole-sequence oracle, " ^ name)
    ~print:(fun calls ->
      String.concat "\n" (List.map Hierarchical.Dli_ast.to_string calls))
    QCheck2.Gen.(list_size (int_range 1 40) (gen_call schema))
    (fun calls ->
      let t = Hierarchical.Engine.create (kernel ()) schema in
      let oracle = Dli_oracle.create (kernel ()) schema in
      List.for_all
        (fun call ->
          let got = Hierarchical.Engine.execute t call in
          let want = Dli_oracle.execute oracle call in
          (got = want
          && Hierarchical.Engine.position t = Dli_oracle.position oracle)
          || QCheck2.Test.fail_reportf "%s: got %s at %s, oracle %s at %s"
               (Hierarchical.Dli_ast.to_string call) (show_result got)
               (show_position (Hierarchical.Engine.position t))
               (show_result want)
               (show_position (Dli_oracle.position oracle)))
        calls)

let suite =
  [
    "ddl", `Quick, test_ddl;
    "ddl errors", `Quick, test_ddl_errors;
    "GU path", `Quick, test_gu_path;
    "GN hierarchic sequence", `Quick, test_gn_sequence;
    "GN with SSA", `Quick, test_gn_with_ssa;
    "GNP within parent", `Quick, test_gnp_within_parent;
    "GNP requires parentage", `Quick, test_gnp_requires_parentage;
    "ISRT under parentage", `Quick, test_isrt_under_parentage;
    "ISRT errors", `Quick, test_isrt_errors;
    "REPL", `Quick, test_repl;
    "DLET subtree", `Quick, test_dlet_subtree;
    "parser errors", `Quick, test_parser_errors;
    "SSA on an unknown field", `Quick, test_ssa_unknown_field;
    "requests independent of size", `Quick, test_requests_independent_of_size;
    QCheck_alcotest.to_alcotest
      (prop_walk_matches_oracle "single store" (fun () -> Mapping.Kernel.single ()));
    QCheck_alcotest.to_alcotest
      (prop_walk_matches_oracle "3 backends" (fun () -> Mapping.Kernel.multi 3));
  ]
