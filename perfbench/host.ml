(* The run record printed next to every result, so a noisy run can be
   told apart from a slow program: on a shared 2-core host a fixed CPU
   loop's wall time varied by ±20% while its CPU time varied by ±4%. *)

let nproc () = Domain.recommended_domain_count ()

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Host-wide steal time from /proc/stat's aggregate cpu line (the eighth
   value, in USER_HZ = 100 ticks/s); 0 where the file is unavailable. *)
let steal_s () =
  match In_channel.with_open_bin "/proc/stat" In_channel.input_line with
  | exception Sys_error _ -> 0.
  | None -> 0.
  | Some line -> (
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ -> (
      match float_of_string_opt steal with Some v -> v /. 100. | None -> 0.)
    | _ -> 0.)

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  let text = In_channel.with_open_bin "/proc/self/status" In_channel.input_all in
  let hwm l = try Some (Scanf.sscanf l "VmHWM: %d kB" Fun.id) with _ -> None in
  match List.find_map hwm (String.split_on_char '\n' text) with
  | Some kb -> float_of_int kb /. 1024.
  | None -> failwith "perfbench: no VmHWM in /proc/self/status"

type start = { wall0 : float; cpu0 : float; steal0 : float }

let start () =
  { wall0 = Unix.gettimeofday (); cpu0 = cpu_s (); steal0 = steal_s () }

type delta = { d_wall : float; d_cpu : float; d_steal : float }

let since st =
  {
    d_wall = Unix.gettimeofday () -. st.wall0;
    d_cpu = cpu_s () -. st.cpu0;
    d_steal = steal_s () -. st.steal0;
  }

let record st ~workload ~seed ~trace ~pins:(pinned, wanted) ~extra =
  let d = since st in
  let open Sim.Json in
  Obj
    ([
       ("run_record", Str workload);
       ("seed", Int seed);
       ("trace", Bool trace);
       ("nproc", Int (nproc ()));
       ("ocaml", Str Sys.ocaml_version);
       ("pinned", Int pinned);
       ("pins_wanted", Int wanted);
       ("pin_missed", Bool (pinned < wanted));
       ("wall_s", Float d.d_wall);
       ("cpu_s", Float d.d_cpu);
       ("host_steal_s", Float d.d_steal);
     ]
    @ extra)
