let ddl =
  {|DATABASE university

TYPE rank_type IS (instructor, assistant, associate, full)

TYPE person IS ENTITY
  name : STRING(25);
  ssn : INTEGER;
END ENTITY

TYPE employee IS person ENTITY
  salary : INTEGER;
  dependents : SET OF STRING(25);
END ENTITY

TYPE support_staff IS employee ENTITY
  hours : INTEGER;
  supervisor : employee;
END ENTITY

TYPE faculty IS employee ENTITY
  rank : rank_type;
  dept : department;
  teaching : SET OF course;
END ENTITY

TYPE student IS person ENTITY
  major : STRING(20);
  advisor : faculty;
END ENTITY

TYPE course IS ENTITY
  title : STRING(30);
  semester : STRING(10);
  credits : INTEGER;
  taught_by : SET OF faculty;
END ENTITY

TYPE department IS ENTITY
  dname : STRING(20);
  building : STRING(20);
  offers : SET OF course;
END ENTITY

UNIQUE title, semester WITHIN course

OVERLAP student WITH support_staff
|}

let schema () = Ddl_parser.schema ddl

type fvalue =
  | Scalar of Abdm.Value.t
  | Scalars of Abdm.Value.t list
  | Ref of string
  | Refs of string list

type row = {
  row_type : string;
  row_key : string;
  row_isa : (string * string) list;
  row_values : (string * fvalue) list;
}

let str s = Scalar (Abdm.Value.Str s)

let int i = Scalar (Abdm.Value.Int i)

let dept key dname building offers =
  {
    row_type = "department";
    row_key = key;
    row_isa = [];
    row_values =
      [ "dname", str dname; "building", str building; "offers", Refs offers ];
  }

let course key title semester credits taught_by =
  {
    row_type = "course";
    row_key = key;
    row_isa = [];
    row_values =
      [
        "title", str title;
        "semester", str semester;
        "credits", int credits;
        "taught_by", Refs taught_by;
      ];
  }

let person key name ssn =
  {
    row_type = "person";
    row_key = key;
    row_isa = [];
    row_values = [ "name", str name; "ssn", int ssn ];
  }

let employee key person_key salary dependents =
  {
    row_type = "employee";
    row_key = key;
    row_isa = [ "person", person_key ];
    row_values =
      [
        "salary", int salary;
        "dependents", Scalars (List.map (fun d -> Abdm.Value.Str d) dependents);
      ];
  }

let faculty key employee_key rank dept_key teaching =
  {
    row_type = "faculty";
    row_key = key;
    row_isa = [ "employee", employee_key ];
    row_values =
      [ "rank", str rank; "dept", Ref dept_key; "teaching", Refs teaching ];
  }

let support_staff key employee_key hours supervisor_key =
  {
    row_type = "support_staff";
    row_key = key;
    row_isa = [ "employee", employee_key ];
    row_values = [ "hours", int hours; "supervisor", Ref supervisor_key ];
  }

let student key person_key major advisor_key =
  {
    row_type = "student";
    row_key = key;
    row_isa = [ "person", person_key ];
    row_values = [ "major", str major; "advisor", Ref advisor_key ];
  }

let rows =
  [
    (* departments *)
    dept "d1" "Computer Science" "Spanagel" [ "c1"; "c2"; "c3"; "c4" ];
    dept "d2" "Mathematics" "Root" [ "c5"; "c6"; "c7" ];
    dept "d3" "Physics" "Bullard" [ "c8"; "c9" ];
    dept "d4" "Operations Research" "Glasgow" [ "c10"; "c11"; "c12" ];
    (* courses *)
    course "c1" "Advanced Database" "Spring" 4 [ "f1" ];
    course "c2" "Operating Systems" "Fall" 4 [ "f1"; "f2" ];
    course "c3" "Compilers" "Winter" 4 [ "f2" ];
    course "c4" "Advanced Database" "Fall" 4 [ "f1" ];
    course "c5" "Calculus" "Fall" 3 [ "f3" ];
    course "c6" "Linear Algebra" "Spring" 3 [ "f3"; "f4" ];
    course "c7" "Real Analysis" "Winter" 4 [ "f4" ];
    course "c8" "Mechanics" "Fall" 4 [ "f5" ];
    course "c9" "Electromagnetism" "Spring" 4 [ "f5" ];
    course "c10" "Queueing Theory" "Fall" 3 [ "f6" ];
    course "c11" "Optimization" "Spring" 4 [ "f6" ];
    course "c12" "Simulation" "Winter" 3 [ "f6" ];
    (* persons: faculty *)
    person "p1" "Hsiao" 111223333;
    person "p2" "Demurjian" 111223334;
    person "p3" "Lum" 111223335;
    person "p4" "Marshall" 111223336;
    person "p5" "Bradley" 111223337;
    person "p6" "Washburn" 111223338;
    (* persons: support staff *)
    person "p7" "Jones" 222334444;
    person "p8" "Smith" 222334445;
    person "p9" "Garcia" 222334446;
    (* persons: students *)
    person "p10" "Coker" 333445555;
    person "p11" "Rodeck" 333445556;
    person "p12" "Emdi" 333445557;
    person "p13" "Wortherly" 333445558;
    person "p14" "Zawis" 333445559;
    person "p15" "Banerjee" 333445560;
    (* employees *)
    employee "e1" "p1" 72000 [ "Ann"; "Ben" ];
    employee "e2" "p2" 54000 [];
    employee "e3" "p3" 68000 [ "Carol" ];
    employee "e4" "p4" 61000 [];
    employee "e5" "p5" 47000 [ "Dan"; "Eve"; "Fay" ];
    employee "e6" "p6" 52000 [];
    employee "e7" "p7" 28000 [];
    employee "e8" "p8" 26000 [ "Gil" ];
    employee "e9" "p9" 31000 [];
    (* faculty *)
    faculty "f1" "e1" "full" "d1" [ "c1"; "c2"; "c4" ];
    faculty "f2" "e2" "assistant" "d1" [ "c2"; "c3" ];
    faculty "f3" "e3" "associate" "d2" [ "c5"; "c6" ];
    faculty "f4" "e4" "full" "d2" [ "c6"; "c7" ];
    faculty "f5" "e5" "associate" "d3" [ "c8"; "c9" ];
    faculty "f6" "e6" "assistant" "d4" [ "c10"; "c11"; "c12" ];
    (* support staff *)
    support_staff "s1" "e7" 40 "e1";
    support_staff "s2" "e8" 40 "e1";
    support_staff "s3" "e9" 20 "e3";
    (* students *)
    student "st1" "p10" "Computer Science" "f1";
    student "st2" "p11" "Computer Science" "f1";
    student "st3" "p12" "Computer Science" "f2";
    student "st4" "p13" "Mathematics" "f3";
    student "st5" "p14" "Physics" "f5";
    student "st6" "p15" "Operations Research" "f6";
  ]

let scaled_rows n =
  (* Replicate the base population enough times to reach ~n entities per
     major type; suffix every key with the replica number so references
     stay within a replica. Replica i > 0 also suffixes course titles
     (UNIQUE title, semester WITHIN course) and offsets every ssn, so
     both stay unique. *)
  let base_students = 6 in
  let replicas = max 1 ((n + base_students - 1) / base_students) in
  let rekey i key = Printf.sprintf "%s_%d" key i in
  let refit i fn v =
    match fn, v with
    | "title", Scalar (Abdm.Value.Str title) when i > 0 ->
      Scalar (Abdm.Value.Str (Printf.sprintf "%s %d" title i))
    | "ssn", Scalar (Abdm.Value.Int ssn) ->
      Scalar (Abdm.Value.Int (ssn + (i * 1_000_000_000)))
    | _, (Scalar _ | Scalars _) -> v
    | _, Ref key -> Ref (rekey i key)
    | _, Refs keys -> Refs (List.map (rekey i) keys)
  in
  let clone i row =
    {
      row with
      row_key = rekey i row.row_key;
      row_isa = List.map (fun (t, k) -> t, rekey i k) row.row_isa;
      row_values = List.map (fun (f, v) -> f, refit i f v) row.row_values;
    }
  in
  List.concat_map (fun i -> List.map (clone i) rows) (List.init replicas Fun.id)
