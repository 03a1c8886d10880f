(* serve-mix: a real [dynspread serve --workers 1] daemon driven by one
   client over two connections in a closed loop.  Each connection has
   one job in flight and submits the next only after the previous
   job's [done] frame. *)

(* {2 Jobs} *)

type job = {
  spec : Obs.Json.t;
  key : string;  (* the spec's JSON text: equal keys, equal reports *)
  events : bool;
}

let templates =
  [|
    (fun seed ->
      Batch.spec_json ~name:"mix-ss" ~algorithm:"single-source"
        ~env:
          [
            ("family", Obs.Json.String "rewiring");
            ("rate", Obs.Json.Float 0.25);
          ]
        ~sigma:3 ~n:32 ~k:32 ~seed ());
    (fun seed ->
      Batch.spec_json ~name:"mix-ms" ~algorithm:"multi-source"
        ~env:
          [
            ("family", Obs.Json.String "request-cutter");
            ("cut_prob", Obs.Json.Float 0.5);
          ]
        ~s:4 ~n:24 ~k:24 ~seed ());
    (fun seed ->
      Batch.spec_json ~name:"mix-flood" ~algorithm:"flooding"
        ~env:[ ("family", Obs.Json.String "tree-rotator") ]
        ~n:48 ~k:8 ~seed ());
    (fun seed ->
      Batch.spec_json ~name:"mix-rw" ~algorithm:"oblivious-rw"
        ~env:[ ("family", Obs.Json.String "fresh-random") ]
        ~n:24 ~k:48 ~seed ());
  |]

let seeds_per_template = 16

(* The pool: every template at sixteen seeded spec seeds, half of them
   streaming events.  Sixteen draws per template keep the pool's mix of
   job lengths, and so its latency tail, nearly the same from one
   workload seed to the next. *)
let cycle = Array.length templates * seeds_per_template

(* The job order is a fresh seeded permutation of the pool in every
   cycle, so which jobs share the worker's queue changes from job to
   job.  Events belong to pool entries, not to positions in the order:
   with two connections taking turns, a per-position rule would put
   every event job on one connection behind the same kind of job, and
   which kind depends on which first submission the daemon reads
   first. *)
let job_source ~seed =
  let rng = Random.State.make [| 0x5e7e; seed |] in
  let pool =
    Array.concat
      (Array.to_list
         (Array.map
            (fun template ->
              Array.init seeds_per_template (fun i ->
                  let spec = template (Random.State.int rng 1_000_000) in
                  { spec; key = Obs.Json.to_string spec; events = i mod 2 = 0 }))
            templates))
  in
  let order = ref [||] in
  fun j ->
    if j / cycle >= Array.length !order / cycle then begin
      let p = Array.init cycle Fun.id in
      for i = cycle - 1 downto 1 do
        let k = Random.State.int rng (i + 1) in
        let x = p.(i) in
        p.(i) <- p.(k);
        p.(k) <- x
      done;
      order := Array.append !order p
    end;
    pool.(!order.(j))

(* {2 The daemon} *)

type daemon = { pid : int; socket : string; metrics_port : int }

let live : daemon option ref = ref None

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let wait_exit pid ~within =
  let deadline = Clock.now_s () +. within in
  let rec go () =
    if exited pid then true
    else if Clock.now_s () > deadline then false
    else (
      Unix.sleepf 0.01;
      go ())
  in
  go ()

(* Always reap the child and unlink its socket, whatever state it is
   in: SIGTERM asks it to cancel its jobs and exit, SIGKILL follows if
   it has not within two seconds. *)
let reap d =
  if not (wait_exit d.pid ~within:0.) then begin
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    if not (wait_exit d.pid ~within:2.) then begin
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (wait_exit d.pid ~within:5.)
    end
  end;
  (try Sys.remove d.socket with Sys_error _ -> ());
  live := None

let () = at_exit (fun () -> Option.iter reap !live)

let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname s with
      | Unix.ADDR_INET (_, p) -> p
      | Unix.ADDR_UNIX _ -> failwith "free_port: not an inet socket")

(* With two CPUs or more, the daemon (its event loop and its worker
   domain) gets the first and this process, the load generator, the
   second.  Left to the scheduler, the three busy threads landed on the
   two CPUs differently from run to run, and the run's pool-pass time
   moved by 20% with the placement. *)
let placement =
  lazy
    (match Affinity.allowed_cpus () with
    | daemon :: client :: _ when Affinity.pin client -> Some (daemon, client)
    | _ -> None)

let spawn ~exe ~socket =
  (try Sys.remove socket with Sys_error _ -> ());
  let metrics_port = free_port () in
  let placement = Lazy.force placement in
  (* The child inherits the affinity of the thread that spawns it. *)
  Option.iter (fun (daemon, _) -> ignore (Affinity.pin daemon)) placement;
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Option.iter (fun (_, client) -> ignore (Affinity.pin client)) placement)
      (fun () ->
        Unix.create_process exe
          [|
            exe; "serve"; "--socket"; socket; "--workers"; "1"; "--metrics-port";
            string_of_int metrics_port;
          |]
          Unix.stdin Unix.stderr Unix.stderr)
  in
  let d = { pid; socket; metrics_port } in
  live := Some d;
  d

(* {2 One rpc connection} *)

type conn = {
  fd : Unix.file_descr;
  splitter : Serve.Frame.splitter;
  buf : Bytes.t;
}

let connect d =
  let deadline = Clock.now_s () +. 30. in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX d.socket) with
    | () ->
        { fd; splitter = Serve.Frame.splitter (); buf = Bytes.create 65536 }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        if exited d.pid then failwith "serve daemon exited during startup";
        if Clock.now_s () > deadline then
          failwith "serve daemon did not accept connections within 30 s";
        Unix.sleepf 0.0002;
        go ()
  in
  go ()

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let send c req = write_all c.fd (Serve.Rpc.request_to_line req ^ "\n")

(* Decode time of the client's own framing and parsing; zero untraced. *)
type decode = { mutable ns : int; mutable calls : int; traced : bool }

let timed_decode dec f =
  if not dec.traced then f ()
  else begin
    let t0 = Clock.now_ns () in
    let r = f () in
    dec.ns <- dec.ns + (Clock.now_ns () - t0);
    dec.calls <- dec.calls + 1;
    r
  end

(* Read what is available and decode it into responses. *)
let read_frames dec c =
  match Unix.read c.fd c.buf 0 (Bytes.length c.buf) with
  | 0 -> failwith "serve daemon closed the connection"
  | n -> (
      let chunk = Bytes.sub_string c.buf 0 n in
      match timed_decode dec (fun () -> Serve.Frame.feed c.splitter chunk) with
      | Error e -> failwith ("framing: " ^ e)
      | Ok lines ->
          List.map
            (fun l ->
              match timed_decode dec (fun () -> Serve.Rpc.response_of_line l) with
              | Ok r -> r
              | Error e -> failwith ("rpc: " ^ e))
            lines)

let rec await dec c pred =
  match List.find_opt pred (read_frames dec c) with
  | Some r -> r
  | None -> await dec c pred

let untraced () = { ns = 0; calls = 0; traced = false }

let ping c =
  send c Serve.Rpc.Ping;
  ignore (await (untraced ()) c (function Serve.Rpc.Pong -> true | _ -> false))

let start ~exe ~socket =
  let t0 = Clock.now_ns () in
  let d = spawn ~exe ~socket in
  let c = connect d in
  ping c;
  (d, c, Clock.seconds (Clock.now_ns () - t0))

let stop d c =
  send c Serve.Rpc.Shutdown;
  (try
     ignore
       (await (untraced ()) c (function
         | Serve.Rpc.Shutting_down -> true
         | _ -> false))
   with Failure _ -> ());
  close c;
  if not (wait_exit d.pid ~within:10.) then failwith "serve daemon did not drain";
  reap d

let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         match String.split_on_char ':' l with
         | [ "VmHWM"; v ] ->
             Scanf.sscanf (String.trim v) "%d kB" (fun kb ->
                 Some (float_of_int kb /. 1024.))
         | _ -> None)
  |> function
  | Some mb -> mb
  | None -> failwith (path ^ " has no VmHWM")

let scrape_busy d =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, d.metrics_port));
      write_all fd "GET /metrics HTTP/1.0\r\n\r\n";
      let out = Buffer.create 4096 and b = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd b 0 (Bytes.length b) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes out b 0 n;
            drain ()
      in
      drain ();
      let name = "dynspread_serve_domain0_busy_seconds" in
      String.split_on_char '\n' (Buffer.contents out)
      |> List.find_map (fun l ->
             match String.split_on_char ' ' (String.trim l) with
             | [ n; v ] when String.equal n name -> float_of_string_opt v
             | _ -> None)
      |> function
      | Some v -> v
      | None -> failwith ("/metrics has no " ^ name))

(* {2 The closed loop} *)

type finished = {
  job : job;
  submit_ns : int;
  accept_ns : int;
  first_event_ns : int;  (* 0 when no event arrived *)
  done_ns : int;
  frames : int;
  event_bytes : int;
  outcome : string;
  reports : string list;
}

type slot = {
  conn : conn;
  mutable job : job option;
  mutable submit_ns : int;
  mutable accept_ns : int;
  mutable first_event_ns : int;
  mutable frames : int;
  mutable event_bytes : int;
  mutable reports : string list;
}

type window = {
  finished : finished list;
  rejected : int;
  start_ns : int;
  end_ns : int;
  decode : decode;
}

let closed_loop ~jobs ~next ~seconds ~min_jobs ~traced conns =
  let dec = { ns = 0; calls = 0; traced } in
  let slots =
    List.map
      (fun conn ->
        {
          conn;
          job = None;
          submit_ns = 0;
          accept_ns = 0;
          first_event_ns = 0;
          frames = 0;
          event_bytes = 0;
          reports = [];
        })
      conns
  in
  let start_ns = Clock.now_ns () in
  let deadline = start_ns + int_of_float (seconds *. 1e9) in
  let hard_deadline = deadline + 60_000_000_000 in
  let finished = ref [] and completed = ref 0 and rejected = ref 0 in
  let submit s =
    let j = jobs !next in
    incr next;
    s.job <- Some j;
    s.submit_ns <- Clock.now_ns ();
    s.accept_ns <- 0;
    s.first_event_ns <- 0;
    s.frames <- 0;
    s.event_bytes <- 0;
    s.reports <- [];
    send s.conn
      (Serve.Rpc.Submit
         {
           Serve.Rpc.tag = None;
           spec = j.spec;
           base_dir = None;
           engine = None;
           shards = None;
           events = j.events;
         })
  in
  let keep_going now = now < deadline || !completed < min_jobs in
  let finish s ~outcome =
    let now = Clock.now_ns () in
    (match s.job with
    | Some job ->
        finished :=
          {
            job;
            submit_ns = s.submit_ns;
            accept_ns = s.accept_ns;
            first_event_ns = s.first_event_ns;
            done_ns = now;
            frames = s.frames;
            event_bytes = s.event_bytes;
            outcome;
            reports = List.rev s.reports;
          }
          :: !finished
    | None -> failwith "a frame arrived on an idle connection");
    s.job <- None;
    if keep_going now then submit s
  in
  let handle s (r : Serve.Rpc.response) =
    s.frames <- s.frames + 1;
    match r with
    | Serve.Rpc.Accepted _ -> s.accept_ns <- Clock.now_ns ()
    | Serve.Rpc.Event { line; _ } ->
        if s.first_event_ns = 0 then s.first_event_ns <- Clock.now_ns ();
        s.event_bytes <- s.event_bytes + String.length line
    | Serve.Rpc.Report { line; _ } -> s.reports <- line :: s.reports
    | Serve.Rpc.Done { outcome; _ } ->
        if String.equal outcome "completed" then incr completed;
        finish s ~outcome
    | Serve.Rpc.Rejected _ ->
        incr rejected;
        finish s ~outcome:"rejected"
    | Serve.Rpc.Error { reason } -> failwith ("serve error: " ^ reason)
    | Serve.Rpc.Status_view _ | Serve.Rpc.Cancel_ok _ | Serve.Rpc.Subscribed _
    | Serve.Rpc.Shutting_down | Serve.Rpc.Pong ->
        ()
  in
  List.iter submit slots;
  let busy () = List.filter (fun s -> Option.is_some s.job) slots in
  while List.exists (fun s -> Option.is_some s.job) slots do
    if Clock.now_ns () > hard_deadline then
      failwith "serve-mix: jobs still running a minute past the window";
    let fds = List.map (fun s -> s.conn.fd) (busy ()) in
    match Unix.select fds [] [] 1.0 with
    | ready, _, _ ->
        List.iter
          (fun s ->
            if List.mem s.conn.fd ready then
              List.iter (handle s) (read_frames dec s.conn))
          slots
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  let end_ns =
    List.fold_left (fun a (f : finished) -> max a f.done_ns) start_ns !finished
  in
  { finished = List.rev !finished; rejected = !rejected; start_ns; end_ns; decode = dec }
