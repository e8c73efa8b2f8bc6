(* probdbd as its own process, and a newline-delimited JSON client over
   its unix socket.  Paths are relative to the checkout root. *)

let exe = "_build/default/bin/probdbd.exe"

type t = {
  pid : int;
  dir : string;
  sock : string;
}

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let start ~dir ~durable =
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let sock = Filename.concat dir "d.sock" in
  let args =
    [ exe; "serve"; "--socket"; sock ]
    @ if durable then [ "--state-dir"; Filename.concat dir "state" ] else []
  in
  let log = Unix.openfile (Filename.concat dir "daemon.log") [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
  let pid = Unix.create_process exe (Array.of_list args) null log log in
  Unix.close log;
  Unix.close null;
  { pid; dir; sock }

(* SIGTERM (the daemon drains and removes its socket), SIGKILL after 5 s;
   then the daemon's directory goes. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.002;
      wait ()
    | 0, _ ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  rm_rf d.dir

(* VmHWM of a process, in MiB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> kb)
    | _ -> find ()
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) find in
  float_of_int kb /. 1024.

type conn = {
  fd : Unix.file_descr;
  pending : Buffer.t;
  chunk : Bytes.t;
}

let connect d =
  let deadline = Unix.gettimeofday () +. 20.0 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX d.sock) with
    | () -> { fd; pending = Buffer.create 4096; chunk = Bytes.create 65536 }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Unix.gettimeofday () < deadline ->
      Unix.close fd;
      (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
       | 0, _ -> ()
       | _ -> failwith "probdbd exited before accepting connections");
      Unix.sleepf 0.0005;
      go ()
  in
  go ()

let close c = Unix.close c.fd

let send c json =
  let line = Bytes.of_string (Obs.Json.to_string json ^ "\n") in
  let rec go off =
    if off < Bytes.length line then go (off + Unix.write c.fd line off (Bytes.length line - off))
  in
  go 0

(* A complete response line already buffered, if any. *)
let take_line c =
  let s = Buffer.contents c.pending in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
    Buffer.clear c.pending;
    Buffer.add_string c.pending (String.sub s (i + 1) (String.length s - i - 1));
    Some (Serve.Jsonr.parse (String.sub s 0 i))

(* Read what the socket has (blocking until at least one byte). *)
let fill c =
  let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
  if n = 0 then raise End_of_file;
  Buffer.add_subbytes c.pending c.chunk 0 n

let rec recv c = match take_line c with Some j -> j | None -> fill c; recv c

let rpc c json =
  send c json;
  recv c

(* ---- JSON access ---------------------------------------------------- *)

let field k = function
  | Obs.Json.Obj l -> (try List.assoc k l with Not_found -> Obs.Json.Null)
  | _ -> Obs.Json.Null

let rec path j = function [] -> j | k :: ks -> path (field k j) ks

let num = function
  | Obs.Json.Int i -> float_of_int i
  | Obs.Json.Float f -> f
  | _ -> nan

let str = function Obs.Json.Str s -> s | _ -> ""
let items = function Obs.Json.List l -> l | _ -> []
let ok j = field "ok" j = Obs.Json.Bool true

(* Sum over every row of a metrics family: [value] for counters and
   gauges; [count] and [sum_ns] for histograms. *)
let family metrics name key =
  List.fold_left
    (fun acc f ->
      if str (field "name" f) = name then
        List.fold_left (fun acc row -> acc +. num (field key row)) acc (items (field "rows" f))
      else acc)
    0.
    (items (path metrics [ "metrics"; "families" ]))
