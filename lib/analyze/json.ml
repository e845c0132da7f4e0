type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* [s.[start..n)] escaped onto [buf], from [i] on: the bytes from [start]
   to the next one that needs an escape go in as one run. *)
let rec add_escaped buf s n start i =
  if i = n then Buffer.add_substring buf s start (n - start)
  else
    match String.unsafe_get s i with
    | ('"' | '\\' | '\000' .. '\031') as c ->
      Buffer.add_substring buf s start (i - start);
      (match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Printf.bprintf buf "\\u%04x" (Char.code c));
      add_escaped buf s n (i + 1) (i + 1)
    | _ -> add_escaped buf s n start (i + 1)

(* [s] as a quoted JSON string, onto [buf]. A string with nothing to
   escape — nearly every key and value the protocol sends — goes in
   whole, with no copy of its own. *)
let add_quoted buf s =
  Buffer.add_char buf '"';
  add_escaped buf s (String.length s) 0 0;
  Buffer.add_char buf '"'

let rec emit buf depth j =
  let pad n = Buffer.add_string buf (String.make (2 * n) ' ') in
  match j with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Printf.bprintf buf "%.6g" f
  | Str s -> add_quoted buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_string buf ",\n";
        pad (depth + 1);
        emit buf (depth + 1) item)
      items;
    Buffer.add_char buf '\n';
    pad depth;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ",\n";
        pad (depth + 1);
        add_quoted buf k;
        Buffer.add_string buf ": ";
        emit buf (depth + 1) v)
      fields;
    Buffer.add_char buf '\n';
    pad depth;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 1024 in
  emit buf 0 j;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* Compact one-line form — the serve protocol's NDJSON framing: one
   message per line, so the value itself must never contain a newline
   ([add_quoted] escapes any embedded in strings). *)
let rec emit_line buf j =
  match j with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Printf.bprintf buf "%.6g" f
  | Str s -> add_quoted buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        emit_line buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        add_quoted buf k;
        Buffer.add_char buf ':';
        emit_line buf v)
      fields;
    Buffer.add_char buf '}'

let to_line j =
  let buf = Buffer.create 256 in
  emit_line buf j;
  Buffer.contents buf

let add_line buf j =
  emit_line buf j;
  Buffer.add_char buf '\n'

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)

(* Recursive-descent over a cursor. Accepts exactly what the two
   printers emit plus insignificant whitespace; numbers with a '.', 'e'
   or 'E' parse as Float, everything else as Int. Errors carry the byte
   offset — enough to debug a protocol trace. *)

exception Parse_error of string

type cursor = { src : string; mutable pos : int }

let fail cur msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg cur.pos))

let more cur = cur.pos < String.length cur.src

(* The byte at the cursor, or ['\000'] past the end ([more] tells the
   two apart): a plain [char], so reading one allocates nothing. *)
let peek cur = if more cur then String.unsafe_get cur.src cur.pos else '\000'

let advance cur = cur.pos <- cur.pos + 1

let rec skip_ws cur =
  match peek cur with
  | ' ' | '\t' | '\n' | '\r' ->
    advance cur;
    skip_ws cur
  | _ -> ()

let expect cur c =
  if peek cur = c then advance cur else fail cur (Printf.sprintf "expected '%c'" c)

let parse_literal cur word v =
  let n = String.length word in
  if cur.pos + n <= String.length cur.src && String.sub cur.src cur.pos n = word then begin
    cur.pos <- cur.pos + n;
    v
  end
  else fail cur (Printf.sprintf "expected '%s'" word)

(* The first quote or backslash in [src] from [i] on, or [String.length
   src]. *)
let rec plain_end src i =
  if i < String.length src && src.[i] <> '"' && src.[i] <> '\\' then plain_end src (i + 1)
  else i

(* The rest of a string with an escape, from the cursor, onto [buf]. *)
let rec parse_escaped cur buf =
  if not (more cur) then fail cur "unterminated string";
  match peek cur with
  | '"' -> advance cur
  | '\\' ->
    advance cur;
    (match peek cur with
    | '"' -> Buffer.add_char buf '"'; advance cur
    | '\\' -> Buffer.add_char buf '\\'; advance cur
    | '/' -> Buffer.add_char buf '/'; advance cur
    | 'n' -> Buffer.add_char buf '\n'; advance cur
    | 'r' -> Buffer.add_char buf '\r'; advance cur
    | 't' -> Buffer.add_char buf '\t'; advance cur
    | 'b' -> Buffer.add_char buf '\b'; advance cur
    | 'f' -> Buffer.add_char buf '\012'; advance cur
    | 'u' ->
      advance cur;
      if cur.pos + 4 > String.length cur.src then fail cur "truncated \\u escape";
      let hex = String.sub cur.src cur.pos 4 in
      let code =
        try int_of_string ("0x" ^ hex) with _ -> fail cur "bad \\u escape"
      in
      cur.pos <- cur.pos + 4;
      (* The printer only emits \u00XX for control bytes; decode the
         BMP range as UTF-8 so round-trips through foreign producers
         do not lose data. *)
      if code < 0x80 then Buffer.add_char buf (Char.chr code)
      else if code < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
      end
    | _ -> fail cur "bad escape");
    parse_escaped cur buf
  | c ->
    Buffer.add_char buf c;
    advance cur;
    parse_escaped cur buf

(* A string with no backslash is one [String.sub]; one with an escape
   goes through a buffer from its first escape on. *)
let parse_string cur =
  expect cur '"';
  let start = cur.pos in
  let stop = plain_end cur.src start in
  if stop < String.length cur.src && cur.src.[stop] = '"' then begin
    cur.pos <- stop + 1;
    String.sub cur.src start (stop - start)
  end
  else begin
    let buf = Buffer.create (stop - start + 16) in
    Buffer.add_substring buf cur.src start (stop - start);
    cur.pos <- stop;
    parse_escaped cur buf;
    Buffer.contents buf
  end

let parse_number cur =
  let start = cur.pos in
  let is_float = ref false in
  let rec go () =
    match peek cur with
    | '0' .. '9' | '-' | '+' ->
      advance cur;
      go ()
    | '.' | 'e' | 'E' ->
      is_float := true;
      advance cur;
      go ()
    | _ -> ()
  in
  go ();
  let s = String.sub cur.src start (cur.pos - start) in
  if !is_float then
    match float_of_string_opt s with Some f -> Float f | None -> fail cur "bad number"
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt s with Some f -> Float f | None -> fail cur "bad number")

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | '\000' when not (more cur) -> fail cur "unexpected end of input"
  | 'n' -> parse_literal cur "null" Null
  | 't' -> parse_literal cur "true" (Bool true)
  | 'f' -> parse_literal cur "false" (Bool false)
  | '"' -> Str (parse_string cur)
  | '-' | '0' .. '9' -> parse_number cur
  | '[' ->
    advance cur;
    skip_ws cur;
    if peek cur = ']' then begin
      advance cur;
      List []
    end
    else begin
      let items = ref [ parse_value cur ] in
      skip_ws cur;
      let rec go () =
        match peek cur with
        | ',' ->
          advance cur;
          items := parse_value cur :: !items;
          skip_ws cur;
          go ()
        | ']' -> advance cur
        | _ -> fail cur "expected ',' or ']'"
      in
      go ();
      List (List.rev !items)
    end
  | '{' ->
    advance cur;
    skip_ws cur;
    if peek cur = '}' then begin
      advance cur;
      Obj []
    end
    else begin
      let field () =
        skip_ws cur;
        let k = parse_string cur in
        skip_ws cur;
        expect cur ':';
        let v = parse_value cur in
        (k, v)
      in
      let fields = ref [ field () ] in
      skip_ws cur;
      let rec go () =
        match peek cur with
        | ',' ->
          advance cur;
          fields := field () :: !fields;
          skip_ws cur;
          go ()
        | '}' -> advance cur
        | _ -> fail cur "expected ',' or '}'"
      in
      go ();
      Obj (List.rev !fields)
    end
  | c -> fail cur (Printf.sprintf "unexpected '%c'" c)

let of_string s =
  let cur = { src = s; pos = 0 } in
  match parse_value cur with
  | v ->
    skip_ws cur;
    if cur.pos <> String.length s then Error (Printf.sprintf "trailing data at offset %d" cur.pos)
    else Ok v
  | exception Parse_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_int = function Int i -> Some i | _ -> None
