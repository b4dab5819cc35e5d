"""Serve the bundled StubEmbeddingServer from a child process.

    python3 stub_proc.py <src dir> <dim>

Prints the endpoint, then answers each line read on stdin with the server's
request count so far, and shuts the server down when stdin closes. In its own
process the stub does not share the client's interpreter lock, as a real
provider would not.
"""

import importlib.util
import sys
from pathlib import Path


def main() -> None:
    sys.dont_write_bytecode = True
    # Load the one module file, so the child does not import the whole package.
    path = Path(sys.argv[1]) / "gclbench" / "stub_server.py"
    spec = importlib.util.spec_from_file_location("stub_server", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    with module.StubEmbeddingServer(dim=int(sys.argv[2])) as server:
        print(server.endpoint, flush=True)
        for _ in sys.stdin:
            print(server.request_count, flush=True)


if __name__ == "__main__":
    main()
