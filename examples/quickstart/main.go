// Quickstart: build a class, push it through the DVM's static service
// pipeline (verify → rewrite into self-verifying form → sign), and run
// it on the client runtime.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"dvm/internal/classfile"
	"dvm/internal/classgen"
	"dvm/internal/jvm"
	"dvm/internal/proxy"
	"dvm/internal/rewrite"
	"dvm/internal/signing"
	"dvm/internal/verifier"
)

func main() {
	// 1. An "application" arrives from the Internet: here we synthesize
	// hello-world with classgen (normally this is any Java 1.2 class).
	b := classgen.NewClass("demo/Hello", "java/lang/Object")
	b.DefaultInit()
	m := b.Method(classfile.AccPublic|classfile.AccStatic, "main", "([Ljava/lang/String;)V")
	m.GetStatic("java/lang/System", "out", "Ljava/io/PrintStream;")
	m.LdcString("hello from a distributed virtual machine")
	m.InvokeVirtual("java/io/PrintStream", "println", "(Ljava/lang/String;)V")
	m.Return()
	raw, err := b.BuildBytes()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("origin class: %d bytes\n", len(raw))

	// 2. The network proxy intercepts the class and runs the static
	// services over it: verification plus the signing step of §2.
	signer := signing.NewSigner([]byte("organization-service-key"))
	p := proxy.New(
		proxy.MapOrigin{"demo/Hello": raw},
		proxy.Config{
			Pipeline:     rewrite.NewPipeline(verifier.Filter(), signer.Filter()),
			CacheEnabled: true,
		},
	)

	// 3. The client resolves classes through the proxy and runs main.
	// Its loader checks the service signature before defining anything.
	loader := &signing.RedirectLoader{Signer: signer, Service: p.Loader("quickstart-client", "dvm")}
	vm, err := jvm.New(loader, os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	thrown, err := vm.RunMain("demo/Hello", nil)
	if err != nil {
		log.Fatal(err)
	}
	if thrown != nil {
		log.Fatalf("uncaught exception: %s", jvm.DescribeThrowable(thrown))
	}

	st := p.Stats()
	fmt.Printf("proxy: %d requests, %d origin fetches, %d bytes served\n",
		st.Requests, st.OriginFetches, st.BytesOut)
	fmt.Printf("client: %d instructions, %d link checks executed (self-verifying code)\n",
		vm.Stats.InstructionsExecuted, vm.Stats.LinkChecks)
}
