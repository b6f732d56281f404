type position =
  | First
  | Last
  | Next
  | Prior

type find =
  | Find_any of { record : string; items : string list }
  | Find_current of { record : string; set : string }
  | Find_duplicate of { set : string; record : string; items : string list }
  | Find_position of { pos : position; record : string; set : string }
  | Find_owner of { set : string }
  | Find_within_current of { record : string; set : string; items : string list }

type get =
  | Get_current
  | Get_record of string
  | Get_items of { items : string list; record : string }

type stmt =
  | Move of { value : Abdm.Value.t; item : string; record : string }
  | Find of find
  | Get of get
  | Store of string
  | Connect of { record : string; sets : string list }
  | Disconnect of { record : string; sets : string list }
  | Modify of { record : string; items : string list }
  | Erase of { record : string; all : bool }
  | Perform_until_eof of stmt list

let position_to_string = function
  | First -> "FIRST"
  | Last -> "LAST"
  | Next -> "NEXT"
  | Prior -> "PRIOR"

let find_to_string = function
  | Find_any { record; items } ->
    Printf.sprintf "FIND ANY %s USING %s IN %s" record
      (String.concat ", " items) record
  | Find_current { record; set } ->
    Printf.sprintf "FIND CURRENT %s WITHIN %s" record set
  | Find_duplicate { set; record; items } ->
    Printf.sprintf "FIND DUPLICATE WITHIN %s USING %s IN %s" set
      (String.concat ", " items) record
  | Find_position { pos; record; set } ->
    Printf.sprintf "FIND %s %s WITHIN %s" (position_to_string pos) record set
  | Find_owner { set } -> Printf.sprintf "FIND OWNER WITHIN %s" set
  | Find_within_current { record; set; items } ->
    Printf.sprintf "FIND %s WITHIN %s CURRENT USING %s IN %s" record set
      (String.concat ", " items) record

let get_to_string = function
  | Get_current -> "GET"
  | Get_record record -> Printf.sprintf "GET %s" record
  | Get_items { items; record } ->
    Printf.sprintf "GET %s IN %s" (String.concat ", " items) record

let rec to_string = function
  | Move { value; item; record } ->
    Printf.sprintf "MOVE %s TO %s IN %s" (Abdm.Value.to_string value) item record
  | Find find -> find_to_string find
  | Get get -> get_to_string get
  | Store record -> Printf.sprintf "STORE %s" record
  | Connect { record; sets } ->
    Printf.sprintf "CONNECT %s TO %s" record (String.concat ", " sets)
  | Disconnect { record; sets } ->
    Printf.sprintf "DISCONNECT %s FROM %s" record (String.concat ", " sets)
  | Modify { record; items = [] } -> Printf.sprintf "MODIFY %s" record
  | Modify { record; items } ->
    Printf.sprintf "MODIFY %s IN %s" (String.concat ", " items) record
  | Erase { record; all } ->
    if all then Printf.sprintf "ERASE ALL %s" record
    else Printf.sprintf "ERASE %s" record
  | Perform_until_eof body ->
    Printf.sprintf "PERFORM UNTIL EOF %s END PERFORM"
      (String.concat "; " (List.map to_string body))
